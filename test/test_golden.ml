(* Golden verdicts on the committed ACAS Xu networks.  A fixed handful
   of W36 cells (the paper's 36 arcs x 12 headings ribbon partition) is
   verified at depth 1 without F# input splitting, and a digest of every
   leaf's box bounds (printed with %h, so every bit counts), depth, cmd
   and verdict is compared against a constant recorded before the plant's
   Taylor recurrence moved onto the compiled tape; so is a digest of the
   per-step reach sets of two cells.  Kernel changes that
   promise bit-identical verdicts must keep this digest. *)

module B = Nncs_interval.Box
module I = Nncs_interval.Interval
module V = Nncs.Verify
module Reach = Nncs.Reach

let data_dir = "../data"

(* W36 cell indices: three proved at depth 0, two that refine into
   eight leaves each, with some leaves left unproved *)
let cells = [ 314; 107; 9; 261; 420 ]

let expected_digest = "e8cf7289e05ac2dd77b195495ac6722a"

let verdict (leaf : V.leaf) =
  match leaf.result with
  | V.Completed Reach.Proved_safe -> "proved_safe"
  | V.Completed (Reach.Reached_error { step }) -> Printf.sprintf "reached_error@%d" step
  | V.Completed Reach.Horizon_exhausted -> "horizon_exhausted"
  | V.Failed f -> "failed:" ^ Nncs_resilience.Failure.to_string f

let add_box buf box =
  Array.iter
    (fun iv -> Printf.bprintf buf " [%h,%h]" (I.lo iv) (I.hi iv))
    (B.to_array box)

let leaf_line buf cell (leaf : V.leaf) =
  Printf.bprintf buf "cell %d depth %d cmd %d proved %b %s" cell leaf.depth
    leaf.state.Nncs.Symstate.cmd leaf.proved (verdict leaf);
  add_box buf leaf.state.Nncs.Symstate.box;
  Buffer.add_char buf '\n'

let system () =
  let nets =
    Array.init 5 (fun prev ->
        Nncs_nn.Nnet_io.load
          (Nncs_acasxu.Training.network_path ~dir:data_dir ~prev))
  in
  Nncs_acasxu.Scenario.system ~networks:nets ~nn_splits:0 ()

let w36 () =
  Array.of_list
    (List.map snd (Nncs_acasxu.Scenario.initial_cells ~arcs:36 ~headings:12 ()))

let digest text = Digest.to_hex (Digest.string text)

let test_verdicts () =
  let sys = system () and w36 = w36 () in
  let config = { V.default_config with max_depth = 1; workers = 1 } in
  let buf = Buffer.create 4096 in
  List.iter
    (fun i ->
      let report = V.verify_partition ~config sys [ w36.(i) ] in
      List.iter
        (fun (c : V.cell_report) -> List.iter (leaf_line buf i) c.leaves)
        report.cells)
    cells;
  let text = Buffer.contents buf in
  Alcotest.(check int) "leaf count" 19
    (List.length (String.split_on_char '\n' text) - 1);
  Alcotest.(check string) "leaf digest" expected_digest (digest text)

(* Verdicts are coarse: most float-level drift in a kernel leaves them
   alone.  The per-step reach sets of one depth-0 analysis are not: any
   changed bit in the flow enclosures or F# boxes shows up here. *)
let expected_sets_digest = "bcc3452ed0a4b019ca1f21f35c33bf81"

let test_reach_sets () =
  let sys = system () and w36 = w36 () in
  let buf = Buffer.create 65536 in
  List.iter
    (fun i ->
      let result = Reach.analyze sys [ w36.(i) ] in
      List.iter
        (fun (r : Reach.step_record) ->
          List.iter
            (fun (what, set) ->
              List.iter
                (fun (st : Nncs.Symstate.t) ->
                  Printf.bprintf buf "cell %d step %d %s cmd %d" i r.step what st.cmd;
                  add_box buf st.box;
                  Buffer.add_char buf '\n')
                set)
            [ ("flow", r.flow); ("next", r.next) ])
        result.steps)
    [ 9; 261 ];
  Alcotest.(check string) "reach-set digest" expected_sets_digest
    (digest (Buffer.contents buf))

let () =
  Alcotest.run "golden"
    [
      ( "w36",
        [
          Alcotest.test_case "verdict digest" `Quick test_verdicts;
          Alcotest.test_case "reach-set digest" `Quick test_reach_sets;
        ] );
    ]
