(* The benchmark's correctness checks.  Each one compares the program's
   output with an independent computation; none of them pins verdicts,
   so a change that proves more cells still passes. *)

module V = Nncs.Verify
module B = Nncs_interval.Box
module Backreach = Nncs_backreach.Backreach
module P = Nncs_serve.Protocol

(* Children per refinement of the paper's All_dims [x; y; psi]. *)
let split_factor = 8.0

let proved_fraction (c : V.cell_report) =
  List.fold_left
    (fun acc (l : V.leaf) ->
      if l.proved then acc +. (split_factor ** -.float_of_int l.depth) else acc)
    0.0 c.leaves

(* The paper's c, recomputed from the leaves alone. *)
let coverage_of_leaves cells =
  match cells with
  | [] -> 0.0
  | _ ->
      100.0
      *. List.fold_left (fun acc c -> acc +. proved_fraction c) 0.0 cells
      /. float_of_int (List.length cells)

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

(* Reported coverage and per-cell fractions agree with the leaves. *)
let coverage_ok (r : V.report) =
  close r.coverage (coverage_of_leaves r.cells)
  && List.for_all
       (fun (c : V.cell_report) -> close c.proved_fraction (proved_fraction c))
       r.cells

(* A served verdict agrees with a direct run of the same job. *)
let served_ok ~fingerprint (direct : V.report) = function
  | P.Verdict v ->
      v.fingerprint = fingerprint
      && close v.coverage direct.coverage
      && v.proved_cells = direct.proved_cells
      && v.unknown_cells = direct.unknown_cells
      && v.total_cells = direct.total_cells
  | _ -> false

(* A lookup answer agrees with a direct query of the same table. *)
let lookup_ok (expected : Backreach.verdict) (got : P.lookup_status) =
  match (expected, got) with
  | Backreach.Unsafe { k }, P.Lookup_unsafe { k = k' } -> k = k'
  | Backreach.Safe, P.Lookup_safe
  | Backreach.Out_of_domain, P.Lookup_out_of_domain ->
      true
  | _ -> false

(* Concrete closed-loop simulations from the corners and the centre of
   up to [max_leaves] seeded proved leaves; returns the number of
   simulations that entered E (each one is a soundness violation). *)
let concrete_violations sys ~rng ~max_leaves (leaves : V.leaf list) =
  let proved = Array.of_list (List.filter (fun (l : V.leaf) -> l.proved) leaves) in
  Nncs_linalg.Rng.shuffle rng proved;
  let sample = Array.sub proved 0 (min max_leaves (Array.length proved)) in
  Array.fold_left
    (fun acc (l : V.leaf) ->
      let box = l.state.box in
      let points = List.sort_uniq compare (B.center box :: B.corners box) in
      List.fold_left
        (fun acc p ->
          match
            (Nncs.Concrete.simulate sys ~init_state:p ~init_cmd:l.state.cmd)
              .termination
          with
          | Nncs.Concrete.Hit_error _ -> acc + 1
          | Terminated _ | Horizon_end -> acc)
        acc points)
    0 sample

(* A digest of verdicts, for comparing runs byte for byte; printed,
   never gated on. *)
let digest reports =
  let b = Buffer.create 4096 in
  List.iter
    (fun (c : V.cell_report) ->
      Printf.bprintf b "%h:" c.proved_fraction;
      List.iter
        (fun (l : V.leaf) ->
          Array.iter2 (Printf.bprintf b "%h,%h,") (B.lo l.state.box) (B.hi l.state.box);
          Printf.bprintf b "%d%c" l.depth
            (match l.result with
            | V.Completed Nncs.Reach.Proved_safe -> 'p'
            | V.Completed (Nncs.Reach.Reached_error _) -> 'e'
            | V.Completed Nncs.Reach.Horizon_exhausted -> 'h'
            | V.Failed _ -> 'f'))
        c.leaves;
      Buffer.add_char b ';')
    reports;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The same for a stream of served terminal events, in order. *)
let served_digest events =
  List.map
    (function
      | P.Verdict v ->
          Printf.sprintf "%s:%h:%d:%d:%d:%s" v.fingerprint v.coverage v.proved_cells
            v.unknown_cells v.total_cells (P.source_to_string v.source)
      | _ -> "error")
    events
  |> String.concat ";" |> Digest.string |> Digest.to_hex
