(* The repository benchmark.  One run executes one seeded workload
   in-process through the libraries' public API and prints, as its last
   stdout line, one JSON object with the end-to-end metrics (--trace 0)
   or the per-layer metrics (--trace 1).  README.md in this directory
   documents the workloads, the metrics and the predictions.

     bash perfbench/run.sh --workload partition_seq --seed 1 --seconds 45 --trace 0 *)

open Perfbench
module V = Nncs.Verify
module S = Nncs_acasxu.Scenario
module D = Nncs_acasxu.Defs
module B = Nncs_interval.Box
module J = Nncs_obs.Json
module Trace = Nncs_obs.Trace
module Span = Nncs_obs.Span
module Metrics = Nncs_obs.Metrics
module Clock = Nncs_obs.Clock
module Backreach = Nncs_backreach.Backreach
module Server = Nncs_serve.Server
module P = Nncs_serve.Protocol
module Rng = Nncs_linalg.Rng

let now = Clock.monotonic_s
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ----- command line ----- *)

type workload = Partition_seq | Partition_par | Serve_mix

let workloads =
  [
    ("partition_seq", Partition_seq);
    ("partition_par", Partition_par);
    ("serve_mix", Serve_mix);
  ]

type opts = { workload : workload; name : string; seed : int; seconds : float; trace : bool }

let usage () =
  prerr_endline
    "usage: main.exe --workload partition_seq|partition_par|serve_mix --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args argv =
  let rec go (w, seed, secs, tr) = function
    | [] -> (w, seed, secs, tr)
    | "--workload" :: v :: rest -> go (Some v, seed, secs, tr) rest
    | "--seed" :: v :: rest -> go (w, int_of_string_opt v, secs, tr) rest
    | "--seconds" :: v :: rest -> go (w, seed, float_of_string_opt v, tr) rest
    | "--trace" :: v :: rest -> go (w, seed, secs, Some v) rest
    | _ -> usage ()
  in
  match go (None, None, None, None) (List.tl (Array.to_list argv)) with
  | Some name, Some seed, Some seconds, Some (("0" | "1") as tr)
    when seconds > 0.0 && List.mem_assoc name workloads ->
      { workload = List.assoc name workloads; name; seed; seconds; trace = tr = "1" }
  | _ -> usage ()

(* ----- provenance ----- *)

let host_cores = Domain.recommended_domain_count ()

let read_file path =
  In_channel.with_open_bin path In_channel.input_all |> String.trim

(* The checkout a benchmark runs in need not be a git repository. *)
let git_rev () =
  try
    let head = read_file ".git/HEAD" in
    match String.index_opt head ' ' with
    | Some i when String.starts_with ~prefix:"ref:" head ->
        read_file (Filename.concat ".git" (String.sub head (i + 1) (String.length head - i - 1)))
    | _ -> head
  with Sys_error _ -> "unknown"

(* Peak resident set size in MB (VmHWM). *)
let peak_rss_mb () =
  try
    In_channel.with_open_bin "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> Float.nan
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
          | Some _ -> scan ()
        in
        scan ())
  with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> Float.nan

(* ----- set-up ----- *)

let data_dir = "data"
let cache_dir = Filename.concat "perfbench" "_cache"

let net_paths () =
  List.init 5 (fun prev -> Nncs_acasxu.Training.network_path ~dir:data_dir ~prev)

(* The committed networks, loaded directly: never trained, never
   written. *)
let load_networks () = Array.of_list (List.map Nncs_nn.Nnet_io.load (net_paths ()))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* The quantized backreach domain acasxu_verify uses: the sensor disc on
   x/y, every heading the partition emits with a margin of pi, point
   speeds. *)
let backreach_config () =
  let r = D.sensor_range_ft and pi = Float.pi in
  let domain =
    B.of_bounds
      [| (-.r, r); (-.r, r); (-.pi, 4.0 *. pi); (D.v_own_fps, D.v_own_fps); (D.v_int_fps, D.v_int_fps) |]
  in
  {
    (Backreach.default_config ~domain ~grid:[| 16; 16; 8; 1; 1 |]) with
    Backreach.reach = V.default_config.reach;
    workers = min 2 host_cores;
  }

(* The table is built once per checkout, outside every timed region, and
   cached under perfbench/_cache keyed by the table fingerprint and the
   network files' digest (the fingerprint does not hash weights). *)
let table_file () =
  let nets = load_networks () in
  let sys = S.system ~networks:nets () in
  let cfg = backreach_config () in
  let weights = Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file (net_paths ())))) in
  let fp = Backreach.fingerprint cfg sys in
  let path = Filename.concat cache_dir (Printf.sprintf "backreach-%s-%s.jsonl" fp (String.sub weights 0 12)) in
  if not (Sys.file_exists path) then begin
    mkdir_p cache_dir;
    log "perfbench: building the backreach table once for this checkout";
    let t0 = now () in
    let t = Backreach.build cfg sys in
    let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
    Backreach.save_table t tmp;
    Sys.rename tmp path;
    log "perfbench: table built in %.1f s (%d/%d states unsafe)" (Clock.elapsed_s ~since:t0)
      (Backreach.num_unsafe t) (Backreach.num_states t)
  end;
  (path, fp)

let load_table (path, fp) =
  match Backreach.load path with
  | Ok t when Backreach.table_fingerprint t = fp -> t
  | Ok _ -> failwith (path ^ ": fingerprint mismatch")
  | Error reason -> failwith (path ^ ": " ^ reason)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let timed f =
  let t0 = now () in
  let x = f () in
  (x, Clock.elapsed_s ~since:t0)

(* ----- workloads ----- *)

(* Effective worker domains of partition_par: the host's two cores,
   never more domains than the runtime recommends. *)
let par_workers = max 1 (min 2 host_cores)

let seq_config = { V.default_config with max_depth = 1; workers = 1 }
let par_config = { V.default_config with max_depth = 2; workers = par_workers }
let par_splits = 4
let serve_splits = 2

(* Items of the fixed work a traced run repeats untraced and traced. *)
let trace_items = function Partition_seq -> 58 | Partition_par -> 1 | Serve_mix -> 150

type env = {
  nets : Nncs_nn.Network.t array;
  sys : Nncs.System.t;
  cells : Nncs.Symstate.t array;  (* W36 *)
  table : Backreach.t option;
  server : (Server.t * string) option;  (* with its memo directory *)
  nets_s : float;
  table_s : float;
  server_s : float;
}

let serve_cache = Server.default_config.cache

let make_server ?(clear_cache = true) ~nets ~table () =
  let dir = Filename.concat cache_dir (Printf.sprintf "memo-%d-%.0f" (Unix.getpid ()) (1e6 *. now ())) in
  mkdir_p dir;
  (* every measured server starts from an empty process-wide F# cache *)
  if clear_cache then Option.iter (fun c -> Nncs_nnabs.Cache.clear (Nncs_nnabs.Cache.shared c)) serve_cache;
  let server =
    Server.create
      {
        Server.default_config with
        memo_path = Some (Filename.concat dir "memo.jsonl");
        memo_capacity = Some 8;
        backreach = Some table;
      }
      ~make_system:(fun ~domain ~nn_splits -> S.system ~networks:nets ~domain ~nn_splits ())
      ~make_cells:(fun ~arcs ~headings ~arc_indices ->
        let arc_indices = match arc_indices with [] -> None | l -> Some l in
        List.map snd (S.initial_cells ~arcs ~headings ?arc_indices ()))
  in
  (server, dir)

let close_env env =
  Option.iter
    (fun (server, dir) ->
      Server.close server;
      rm_rf dir)
    env.server

let setup ?clear_cache w table_file =
  let nets, nets_s = timed load_networks in
  let splits = match w with Partition_seq -> 0 | Partition_par -> par_splits | Serve_mix -> serve_splits in
  let sys = S.system ~networks:nets ~nn_splits:splits () in
  let cells = Gen.w36 () in
  let table, table_s =
    match w with
    | Serve_mix -> timed (fun () -> Some (load_table table_file))
    | Partition_seq | Partition_par -> (None, 0.0)
  in
  let server, server_s =
    match table with
    | Some table -> timed (fun () -> Some (make_server ?clear_cache ~nets ~table ()))
    | None -> (None, 0.0)
  in
  { nets; sys; cells; table; server; nets_s; table_s; server_s }

(* ----- set-up samples -----

   set-up is timed [setup_reps] times and the median reported.  The
   samples are spread over the measured window, one every
   [seconds / setup_reps] at an item boundary, because the host's speed
   changes over seconds: a burst of set-ups at the start of a run
   sampled one moment of it, and the median over ten runs moved by 45%
   between two sets of runs.  The time a sample takes is taken out of
   the workload's clock [wnow], so the window still holds [seconds] of
   workload. *)

let setup_reps = 15

type sampler = { fresh_env : unit -> env; every : float; mutable taken : float list }

let sampler : sampler option ref = ref None
let paused_s = ref 0.0
let wnow () = now () -. !paused_s

let take_setup_sample s =
  let t = now () in
  let env, dt = timed s.fresh_env in
  close_env env;
  s.taken <- dt :: s.taken;
  paused_s := !paused_s +. Clock.elapsed_s ~since:t

let sample_setup ~t0 =
  match !sampler with
  | Some s
    when List.length s.taken < setup_reps
         && wnow () -. t0 >= s.every *. float_of_int (List.length s.taken) ->
      take_setup_sample s
  | Some _ | None -> ()

(* ----- results of one measured pass -----

   A workload's run function measures eagerly and returns a thunk that
   runs the correctness checks, so a traced run can stop tracing before
   the checks execute. *)

type pass = {
  wall_s : float;
  items : int;  (* cells (partition) or jobs (serve) completed *)
  latencies_s : float list;  (* per cell or per job *)
  coverage : float;
  check_failures : (string * int) list;  (* check name -> failures *)
  attempted : int;
  failed : int;
  extra : (string * float) list;  (* serve latencies for the per-layer view *)
  notes : string list;
}

let count_leaves reports =
  List.fold_left
    (fun (n, f) (r : V.report) ->
      List.fold_left
        (fun (n, f) (c : V.cell_report) ->
          List.fold_left
            (fun (n, f) (l : V.leaf) ->
              (n + 1, match l.result with V.Failed _ -> f + 1 | V.Completed _ -> f))
            (n, f) c.leaves)
        (n, f) r.cells)
    (0, 0) reports

let all_cells reports = List.concat_map (fun (r : V.report) -> r.cells) reports
let all_leaves reports = List.concat_map (fun (c : V.cell_report) -> c.leaves) (all_cells reports)

(* Checks shared by every workload: coverage against the leaves of each
   report, then concrete simulations from seeded proved leaves. *)
let common_checks ~seed sys reports =
  let bad_coverage = List.length (List.filter (fun r -> not (Check.coverage_ok r)) reports) in
  let rng = Rng.create (seed lxor 0xc0ffee) in
  let in_e = Check.concrete_violations sys ~rng ~max_leaves:16 (all_leaves reports) in
  [ ("coverage", bad_coverage); ("concrete", in_e) ]

let finish_partition ~seed ~sys ~t0 ~latencies_s reports =
  let wall_s = wnow () -. t0 in
  fun () ->
  let leaves, failed_leaves = count_leaves reports in
  let checks = common_checks ~seed sys reports in
  {
    wall_s;
    items = List.length latencies_s;
    latencies_s;
    coverage = Check.coverage_of_leaves (all_cells reports);
    check_failures = checks;
    attempted = leaves;
    failed = failed_leaves + List.fold_left (fun a (_, n) -> a + n) 0 checks;
    extra = [];
    notes = [ Printf.sprintf "verdict_digest %s (%d cells)" (Check.digest (all_cells reports)) (List.length latencies_s) ];
  }

type limit = Seconds of float | Items of int

(* Start another item while at least half of its expected cost still
   fits in the time limit, so runs end close to it on average. *)
let more limit ~t0 ~done_ ~next_cost =
  match limit with
  | Items n -> done_ < n
  | Seconds s -> done_ = 0 || wnow () -. t0 +. (next_cost /. 2.0) <= s

(* partition_seq: one cell per Verify call, sequentially; a cell's
   latency is the time since the previous cell completed. *)
let run_seq ~seed env limit =
  let stream = ref (Gen.seq_cells ~seed) in
  let t0 = wnow () in
  let rec loop done_ stamps reports =
    sample_setup ~t0;
    if not (more limit ~t0 ~done_ ~next_cost:0.0) then (stamps, reports)
    else
      match !stream () with
      | Seq.Nil -> (stamps, reports)
      | Seq.Cons (i, rest) ->
          stream := rest;
          let r =
            Span.with_ "bench.cell" (fun () -> V.verify_partition ~config:seq_config env.sys [ env.cells.(i) ])
          in
          loop (done_ + 1) (wnow () :: stamps) (r :: reports)
  in
  let stamps, reports = loop 0 [] [] in
  let latencies_s, _ =
    List.fold_left (fun (acc, prev) t -> ((t -. prev) :: acc, t)) ([], t0) (List.rev stamps)
  in
  finish_partition ~seed ~sys:env.sys ~t0 ~latencies_s (List.rev reports)

let rec split_at n s =
  if n = 0 then ([], s)
  else
    match s () with
    | Seq.Nil -> ([], Seq.empty)
    | Seq.Cons (x, rest) ->
        let xs, rest = split_at (n - 1) rest in
        (x :: xs, rest)

(* partition_par: one Verify call with [par_workers] domains per round.
   A cell's latency is its own analysis time as the report records it:
   with two workers, the gaps between completions measure throughput,
   not how long a cell takes. *)
let run_par ~seed env limit =
  let stream = ref (Gen.par_cells ~seed) in
  let t0 = wnow () in
  let rec loop rounds reports =
    sample_setup ~t0;
    let next_cost = if rounds = 0 then 0.0 else (wnow () -. t0) /. float_of_int rounds in
    if not (more limit ~t0 ~done_:rounds ~next_cost) then reports
    else begin
      let round, rest = split_at Gen.par_round_size !stream in
      stream := rest;
      let r =
        Span.with_ "bench.round" (fun () ->
            V.verify_partition ~config:par_config env.sys (List.map (fun i -> env.cells.(i)) round))
      in
      loop (rounds + 1) (r :: reports)
    end
  in
  let reports = List.rev (loop 0 []) in
  let latencies_s = List.map (fun (c : V.cell_report) -> c.elapsed) (all_cells reports) in
  finish_partition ~seed ~sys:env.sys ~t0 ~latencies_s reports

(* ----- serve_mix: one JSONL session through Server.run ----- *)

let lookup_rate = 200.0

type job_rec = {
  gen : Gen.job;
  line : string;
  sent : float;
  mutable accepted : float;
  mutable verdict : (P.event * float) option;  (* terminal event, time *)
}

let job_line id (cell : Nncs.Symstate.t) (job : Gen.job) =
  (* only wire keys the protocol keeps: never "scheduler" or
     "batch_leaves" *)
  J.to_string
    (J.Obj
       [
         ("t", J.Str "job");
         ("id", J.Str id);
         ( "cells",
           J.List
             [
               J.Obj
                 [
                   ( "box",
                     J.List
                       (List.init (B.dim cell.box) (fun d ->
                            let iv = B.get cell.box d in
                            J.List [ J.Num (Nncs_interval.Interval.lo iv); J.Num (Nncs_interval.Interval.hi iv) ])) );
                   ("cmd", J.Num (float_of_int cell.cmd));
                 ];
             ] );
         ("nn_splits", J.Num (float_of_int serve_splits));
         ("max_depth", J.Num (float_of_int job.max_depth));
       ])

let lookup_line id (cell : Nncs.Symstate.t) cmd =
  J.to_string (P.request_to_json (P.Lookup { id; box = cell.box; cmd }))

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let serve_session env limit ~seed =
  let server, _ = Option.get env.server in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let ev_r, ev_w = Unix.pipe ~cloexec:true () in
  (* The session loop runs in a thread of this domain, not in a domain
     of its own: with the dispatcher's domain that makes two domains, as
     in an nncs_serve process whose client is another process.  Each
     extra domain must join every stop-the-world minor collection, which
     on two shared vCPUs turns host contention into stalls. *)
  let session =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr ev_w in
        ignore (Server.run server ic oc);
        close_out oc;
        close_in ic)
      ()
  in
  let jobs_stream = ref (Gen.serve_jobs ~seed) in
  let lookups_stream = ref (Gen.lookups ~seed) in
  let jobs = Hashtbl.create 256 and job_order = ref [] in
  let lookups = Hashtbl.create 4096 in
  let lookup_results = ref [] and lookup_lat = ref [] and gen_late = ref [] in
  let errors = ref 0 in
  let outstanding = ref None and sent_jobs = ref 0 and sent_lookups = ref 0 in
  let bye = ref false and eof = ref false in
  let t0 = wnow () in
  let stopped () =
    match limit with
    | Seconds s -> wnow () -. t0 >= s
    | Items n -> !sent_jobs >= n && Option.is_none !outstanding
  in
  let handle line =
    match P.event_of_json (J.of_string line) with
    | Error reason ->
        incr errors;
        log "perfbench: bad event %s (%s)" line reason
    | Ok ev -> (
        let t = wnow () in
        match ev with
        | P.Accepted { id; _ } -> Option.iter (fun j -> j.accepted <- t) (Hashtbl.find_opt jobs id)
        | P.Verdict { id; _ } | P.Cancelled { id; _ } | P.Job_error { id; _ } -> (
            match Hashtbl.find_opt jobs id with
            | Some j ->
                j.verdict <- Some (ev, t);
                (match !outstanding with Some o when o == j -> outstanding := None | _ -> ());
                (match ev with P.Verdict _ -> () | _ -> incr errors)
            | None -> incr errors)
        | P.Lookup_result { id; status } -> (
            match Hashtbl.find_opt lookups id with
            | Some (due, cell, cmd) ->
                Hashtbl.remove lookups id;
                lookup_lat := (t -. due) :: !lookup_lat;
                lookup_results := (cell, cmd, status) :: !lookup_results
            | None -> incr errors)
        | P.Bye -> bye := true
        | P.Progress _ | P.Stats_report _ -> ())
  in
  let pending = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let read_events timeout =
    match Unix.select [ ev_r ] [] [] timeout with
    | [], _, _ -> ()
    | _ ->
        let n = Unix.read ev_r chunk 0 (Bytes.length chunk) in
        if n = 0 then eof := true
        else begin
          Buffer.add_subbytes pending chunk 0 n;
          let s = Buffer.contents pending in
          let parts = String.split_on_char '\n' s in
          let rec go = function
            | [ last ] ->
                Buffer.clear pending;
                Buffer.add_string pending last
            | l :: rest ->
                if l <> "" then handle l;
                go rest
            | [] -> Buffer.clear pending
          in
          go parts
        end
  in
  (* a burst after a stall is capped so the client keeps draining events:
     both pipes full would deadlock it against the session loop *)
  let send_lookups () =
    let rec go burst =
      let due = t0 +. (float_of_int !sent_lookups /. lookup_rate) in
      let t = wnow () in
      if due <= t && burst < 64 then begin
        match !lookups_stream () with
        | Seq.Nil -> ()
        | Seq.Cons ((cell, cmd), rest) ->
            lookups_stream := rest;
            let id = Printf.sprintf "q%d" !sent_lookups in
            Hashtbl.replace lookups id (due, cell, cmd);
            write_all req_w (lookup_line id env.cells.(cell) cmd ^ "\n");
            gen_late := (t -. due) :: !gen_late;
            incr sent_lookups;
            go (burst + 1)
      end
    in
    go 0
  in
  let send_job () =
    match !jobs_stream () with
    | Seq.Nil -> ()
    | Seq.Cons (g, rest) ->
        jobs_stream := rest;
        let id = Printf.sprintf "j%d" !sent_jobs in
        let line = job_line id (Gen.shifted env.cells g) g in
        let j = { gen = g; line; sent = wnow (); accepted = Float.nan; verdict = None } in
        Hashtbl.replace jobs id j;
        job_order := j :: !job_order;
        outstanding := Some j;
        incr sent_jobs;
        write_all req_w (line ^ "\n")
  in
  while not (stopped () && Option.is_none !outstanding && Hashtbl.length lookups = 0) && not !eof do
    if not (stopped ()) then begin
      send_lookups ();
      if Option.is_none !outstanding then begin
        (* between jobs the dispatcher is idle, so a set-up sample
           disturbs no job *)
        sample_setup ~t0;
        send_job ()
      end
    end;
    (* poll rather than sleep: a vCPU that halts between events must be
       woken for every stop-the-world minor collection the dispatcher
       starts, and on a contended host that wake-up stalls the
       dispatcher too.  Yielding lets the session thread run. *)
    read_events 0.0;
    Thread.yield ()
  done;
  let wall_s = wnow () -. t0 in
  write_all req_w (J.to_string (P.request_to_json P.Shutdown) ^ "\n");
  while not (!bye || !eof) do
    read_events 0.05
  done;
  Unix.close req_w;
  Thread.join session;
  Unix.close ev_r;
  (List.rev !job_order, wall_s, !lookup_lat, List.rev !lookup_results, !gen_late, !errors)

let verdict_fields = function
  | P.Verdict v -> Some (v.fingerprint, v.coverage, v.proved_cells, v.unknown_cells, v.total_cells)
  | _ -> None

let run_serve ~seed env limit =
  let jobs, wall_s, lookup_lat, lookup_results, gen_late, errors = serve_session env limit ~seed in
  fun () ->
  let table = Option.get env.table in
  let done_ = List.filter_map (fun j -> Option.map (fun (ev, t) -> (j, ev, t)) j.verdict) jobs in
  (* a job that ends in an error or a cancellation misses every latency
     limit: it counts as taking the whole run *)
  let latencies_s =
    List.map (fun (j, ev, t) -> match ev with P.Verdict _ -> t -. j.sent | _ -> wall_s) done_
  in
  let wrong_lookups =
    List.length
      (List.filter
         (fun (cell, cmd, status) ->
           not (Check.lookup_ok (Backreach.query table ~box:env.cells.(cell).box ~cmd) status))
         lookup_results)
  in
  (* every verdict served under one fingerprint must be the same *)
  let by_fp = Hashtbl.create 64 in
  let inconsistent =
    List.fold_left
      (fun acc (_, ev, _) ->
        match verdict_fields ev with
        | Some ((fp, _, _, _, _) as v) -> (
            match Hashtbl.find_opt by_fp fp with
            | Some v' when v' <> v -> acc + 1
            | Some _ -> acc
            | None ->
                Hashtbl.replace by_fp fp v;
                acc)
        | None -> acc)
      0 done_
  in
  (* re-run a seeded sample of cold jobs directly, uncached, from the
     very request line the server parsed *)
  let rng = Rng.create (seed lxor 0xd1ec7) in
  let colds = Array.of_list (List.filter (fun (j, _, _) -> j.gen.Gen.cls = Gen.Cold) done_) in
  Rng.shuffle rng colds;
  let sample = Array.to_list (Array.sub colds 0 (min 2 (Array.length colds))) in
  let direct =
    List.filter_map
      (fun (j, ev, _) ->
        match P.request_of_json (J.of_string j.line) with
        | Ok (P.Job ({ cells = P.Explicit cells; _ } as pj)) ->
            let config = { pj.config with V.reach = { pj.config.V.reach with abs_cache = None } } in
            let sys = S.system ~networks:env.nets ~domain:pj.domain ~nn_splits:pj.nn_splits () in
            let fingerprint = V.fingerprint ~config sys cells in
            let report = V.verify_partition ~config sys cells in
            Some (Check.served_ok ~fingerprint report ev, report)
        | Ok _ | Error _ -> None)
      sample
  in
  let mismatched =
    List.length sample - List.length (List.filter (fun (ok, _) -> ok) direct)
  in
  let reports = List.map snd direct in
  let checks = common_checks ~seed env.sys reports in
  let checks =
    checks @ [ ("lookups", wrong_lookups); ("served_consistency", inconsistent); ("served_vs_direct", mismatched) ]
  in
  let by_class cls =
    List.filter_map (fun (j, ev, t) -> match ev with P.Verdict _ when j.gen.Gen.cls = cls -> Some (t -. j.sent) | _ -> None) done_
  in
  let memo_lat =
    List.filter_map
      (fun (j, ev, t) -> match ev with P.Verdict { source = P.Memo; _ } -> Some (t -. j.sent) | _ -> None)
      done_
  in
  let accept_lat = List.filter_map (fun (j, _, _) -> if Float.is_nan j.accepted then None else Some (j.accepted -. j.sent)) done_ in
  let coverage =
    match done_ with
    | [] -> 0.0
    | _ ->
        List.fold_left (fun a (_, ev, _) -> match ev with P.Verdict v -> a +. v.coverage | _ -> a) 0.0 done_
        /. float_of_int (List.length done_)
  in
  let attempted = List.length jobs + List.length lookup_results in
  let failures = List.fold_left (fun a (_, n) -> a + n) 0 checks in
  let us x = 1e6 *. x and ms x = 1e3 *. x in
  {
    wall_s;
    items = List.length done_;
    latencies_s;
    coverage;
    check_failures = checks;
    attempted;
    failed = errors + (List.length jobs - List.length done_) + failures;
    extra =
      [
        ("serve.accept_p50_us", us (Pct.median accept_lat));
        ("serve.memo_p50_us", us (Pct.median memo_lat));
        ("serve.run_cold_p50_ms", ms (Pct.median (by_class Gen.Cold)));
        ("serve.run_warm_p50_ms", ms (Pct.median (by_class Gen.Warm)));
        ("serve.lookup_p50_us", us (Pct.median lookup_lat));
        ("serve.lookup_p99_us", us (Pct.percentile lookup_lat 99.0));
        ("serve.lookup_gen_late_p99_us", us (Pct.percentile gen_late 99.0));
      ];
    notes =
      [
        Printf.sprintf "lookups %d answered, lookup_p50_us %.1f, lookup_p99_us %.1f%s" (List.length lookup_results)
          (us (Pct.median lookup_lat)) (us (Pct.percentile lookup_lat 99.0))
          (if Pct.reportable ~n:(List.length lookup_lat) 99.0 then "" else " (p99 not reportable: <10 samples beyond)");
        Printf.sprintf "jobs %d (%d memo), jobs_per_s %.3f" (List.length done_) (List.length memo_lat)
          (float_of_int (List.length done_) /. wall_s);
        Printf.sprintf "verdict_digest %s (%d served verdicts)"
          (Check.served_digest (List.map (fun (_, ev, _) -> ev) done_))
          (List.length done_);
      ];
  }

let run_pass opts env limit =
  match opts.workload with
  | Partition_seq -> run_seq ~seed:opts.seed env limit
  | Partition_par -> run_par ~seed:opts.seed env limit
  | Serve_mix -> run_serve ~seed:opts.seed env limit

let workers_of = function Partition_seq -> 1 | Partition_par -> par_workers | Serve_mix -> 1

(* ----- probes: direct per-layer calls on the workload's own cells ----- *)

(* median per-call seconds of [f] over [xs], repeated until every [x]
   ran and at least 0.2 s of calls were timed *)
let probe f xs =
  let min_s = 0.2 in
  let xs = Array.of_list xs in
  let samples = ref [] and spent = ref 0.0 and i = ref 0 in
  while !spent < min_s || !i < Array.length xs do
    let x = xs.(!i mod Array.length xs) in
    let t0 = now () in
    ignore (Sys.opaque_identity (f x));
    let dt = Clock.elapsed_s ~since:t0 in
    samples := dt :: !samples;
    spent := !spent +. dt;
    incr i
  done;
  Pct.median !samples

let probe_cells ~seed w env =
  let stream = match w with Partition_par -> Gen.par_cells ~seed | _ -> Gen.seq_cells ~seed in
  List.map (fun i -> env.cells.(i)) (List.of_seq (Seq.take 16 stream))

(* ----- output ----- *)

let metric name unit value = (name, unit, value)

let print_result ~correct ~attempted ~failed metrics =
  let m =
    J.Obj (List.map (fun (name, unit, v) -> (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit) ])) metrics)
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int attempted));
            ("failed", J.Num (float_of_int failed));
            ("metrics", m);
          ]))

let print_checks (p : pass) =
  List.iter
    (fun (name, n) -> Printf.printf "check %-20s %s\n" name (if n = 0 then "ok" else Printf.sprintf "FAILED (%d)" n))
    p.check_failures;
  List.iter (fun n -> Printf.printf "# %s\n" n) p.notes

let correct (p : pass) = List.for_all (fun (_, n) -> n = 0) p.check_failures

let end_to_end opts ~setup_s (p : pass) =
  let n = List.length p.latencies_s in
  let p90 = Pct.percentile p.latencies_s 90.0 in
  if not (Pct.reportable ~n 90.0) then
    Printf.printf "# warning: cell_p90_ms from %d samples is not reportable (<10 samples beyond)\n" n;
  let metrics =
    [
      metric "setup_s" "s" setup_s;
      metric "cells_per_s" "cells/s" (float_of_int p.items /. p.wall_s);
      metric "cell_p50_ms" "ms" (1e3 *. Pct.median p.latencies_s);
      metric "cell_p90_ms" "ms" (1e3 *. p90);
      metric "coverage_pct" "%" p.coverage;
      metric "peak_rss_mb" "MB" (peak_rss_mb ());
    ]
  in
  List.iter (fun (name, unit, v) -> Printf.printf "%-16s %14.4f %s\n" name v unit) metrics;
  Printf.printf "%-16s %14.4f %s\n" "failed_frac" (float_of_int p.failed /. float_of_int (max 1 p.attempted)) "ratio";
  (match opts.workload with
  | Serve_mix ->
      Printf.printf "# serve_mix: one cell per job, so cells_per_s = jobs_per_s and cell_pXX_ms = job_pXX_ms\n"
  | Partition_seq | Partition_par -> ());
  print_checks p;
  print_result ~correct:(correct p) ~attempted:p.attempted ~failed:p.failed metrics

let per_layer opts env ~table_file ~untraced ~traced ~events ~snap ~gc0 ~gc1 =
  let phases = Selftime.phases (List.map Selftime.of_event events) in
  let ph = Selftime.phase phases in
  let counter name = float_of_int (Option.value (List.assoc_opt name snap.Metrics.counters) ~default:0) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  (* busy time inside the program: the benchmark's own spans are left
     out, since their self time is time spent waiting on worker domains
     or outside the libraries *)
  let in_program name = not (String.starts_with ~prefix:"bench." name) in
  let busy =
    Hashtbl.fold (fun name (p : Selftime.phase) acc -> if in_program name then acc +. p.self_s else acc) phases 0.0
  in
  (* multiply-adds of the symbolic F# kernel, from each layer span's
     shape: both bound planes combine fan_in rows of (m + 1) coefficients *)
  let sizes = Array.of_list (Nncs_nn.Network.layer_sizes env.nets.(0)) in
  let m = float_of_int sizes.(0) in
  let madds =
    List.fold_left
      (fun acc (e : Trace.event) ->
        if e.name <> "nnabs.layer" then acc
        else
          match (List.assoc_opt "layer" e.attrs, List.assoc_opt "neurons" e.attrs) with
          | Some (Trace.Int li), Some (Trace.Int rows) ->
              acc +. (2.0 *. float_of_int rows *. float_of_int sizes.(li) *. (m +. 1.0))
          | _ -> acc)
      0.0 events
  in
  let cell_busy = (ph "verify.cell").total_s in
  let workers = float_of_int (workers_of opts.workload) in
  let leaves = counter "verify.leaves" in
  let hist name =
    match List.assoc_opt name snap.Metrics.histograms with
    | Some h when h.Metrics.count > 0 -> h.Metrics.sum /. float_of_int h.Metrics.count
    | _ -> 0.0
  in
  (* probes, untraced *)
  let cells = probe_cells ~seed:opts.seed opts.workload env in
  let ctrl = env.sys.Nncs.System.controller in
  let r = V.default_config.reach in
  let ode_probe =
    probe
      (fun (st : Nncs.Symstate.t) ->
        Nncs_ode.Simulate.simulate env.sys.Nncs.System.plant ~t0:0.0 ~period:ctrl.Nncs.Controller.period
          ~steps:r.integration_steps ~order:r.taylor_order ~state:st.box
          ~inputs:(Nncs.Command.value_box ctrl.commands st.cmd))
      cells
  in
  let fsharp_probe = probe (fun (st : Nncs.Symstate.t) -> Nncs.Controller.abstract_step ctrl ~box:st.box ~prev_cmd:st.cmd) cells in
  let table, table_load_s =
    match env.table with Some t -> (t, env.table_s) | None -> timed (fun () -> load_table table_file)
  in
  let queries = List.concat_map (fun c -> List.init 5 (fun cmd -> (c, cmd))) (Array.to_list env.cells) in
  let backreach_probe = probe (fun ((c : Nncs.Symstate.t), cmd) -> Backreach.query table ~box:c.box ~cmd) queries in
  let extra name = Option.value (List.assoc_opt name untraced.extra) ~default:0.0 in
  let ode = ph "ode.simulate" and nn = ph "nnabs.layer" in
  let cache_hits = counter "nnabs.cache_hits" and cache_misses = counter "nnabs.cache_misses" in
  let memo_hits = counter "serve.memo_hits" and memo_misses = counter "serve.memo_misses" in
  let metrics =
    [
      metric "ode.simulate.calls" "count" (float_of_int ode.calls);
      metric "ode.simulate.self_s" "s" ode.self_s;
      metric "ode.simulate.mean_ms" "ms" (1e3 *. ratio ode.total_s (float_of_int ode.calls));
      metric "ode.simulate.share" "ratio" (ratio ode.self_s busy);
      metric "ode.substeps" "count" (counter "ode.substeps");
      metric "ode.apriori_calls" "count" (counter "ode.apriori_calls");
      metric "ode.apriori_retries" "count" (counter "ode.apriori_retries");
      metric "ode.apriori_retry_ratio" "ratio" (ratio (counter "ode.apriori_retries") (counter "ode.apriori_calls"));
      metric "ode.probe_us" "us" (1e6 *. ode_probe);
      metric "nnabs.layer.calls" "count" (float_of_int nn.calls);
      metric "nnabs.layer.self_s" "s" nn.self_s;
      metric "nnabs.layer.share" "ratio" (ratio nn.self_s busy);
      metric "nnabs.relu_neurons" "count" (counter "nnabs.relu_neurons");
      metric "nnabs.unstable_ratio" "ratio" (ratio (counter "nnabs.unstable_neurons") (counter "nnabs.relu_neurons"));
      metric "nnabs.madds" "count" madds;
      metric "nnabs.mflops" "Mflop/s" (ratio (2.0 *. madds /. 1e6) nn.total_s);
      metric "fsharp.probe_us" "us" (1e6 *. fsharp_probe);
      metric "reach.resize.self_s" "s" (ph "reach.resize").self_s;
      metric "reach.joins" "count" (counter "reach.joins");
      metric "reach.states_after_resize.mean" "states" (hist "reach.states_after_resize");
      metric "reach.steps" "count" (counter "reach.steps");
      metric "reach.step.self_s" "s" (ph "reach.step").self_s;
      metric "verify.leaves" "count" leaves;
      metric "verify.proved_ratio" "ratio" (ratio (counter "verify.proved_leaves") leaves);
      metric "verify.worker_util" "ratio" (ratio cell_busy (workers *. traced.wall_s));
      metric "verify.idle_s" "s" (Float.max 0.0 ((workers *. traced.wall_s) -. cell_busy));
      metric "verify.steals" "count" (counter "verify.steals");
      metric "resilience.unknown_leaves" "count" (counter "resilience.unknown_leaves");
      metric "resilience.retry_halved_step" "count" (counter "resilience.retry_halved_step");
      metric "gc.minor_words_per_leaf" "words" (ratio (gc1.Gc.minor_words -. gc0.Gc.minor_words) leaves);
      metric "gc.minor_collections" "count" (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
      metric "gc.major_collections" "count" (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      metric "nnabs.cache_hits" "count" cache_hits;
      metric "nnabs.cache_hit_ratio" "ratio" (ratio cache_hits (cache_hits +. cache_misses));
      metric "nnabs.cache_evictions" "count" (counter "nnabs.cache_evictions");
      metric "serve.memo_hits" "count" memo_hits;
      metric "serve.memo_hit_ratio" "ratio" (ratio memo_hits (memo_hits +. memo_misses));
      metric "serve.memo_evictions" "count" (counter "serve.memo_evictions");
      metric "serve.accept_p50_us" "us" (extra "serve.accept_p50_us");
      metric "serve.memo_p50_us" "us" (extra "serve.memo_p50_us");
      metric "serve.run_cold_p50_ms" "ms" (extra "serve.run_cold_p50_ms");
      metric "serve.run_warm_p50_ms" "ms" (extra "serve.run_warm_p50_ms");
      metric "serve.lookup_p50_us" "us" (extra "serve.lookup_p50_us");
      metric "serve.lookup_p99_us" "us" (extra "serve.lookup_p99_us");
      metric "serve.lookup_gen_late_p99_us" "us" (extra "serve.lookup_gen_late_p99_us");
      metric "backreach.lookups" "count" (counter "serve.lookups");
      metric "backreach.probe_ns" "ns" (1e9 *. backreach_probe);
      metric "setup.nets_s" "s" env.nets_s;
      metric "setup.table_load_s" "s" table_load_s;
      metric "setup.server_s" "s" env.server_s;
      metric "trace.overhead_ratio" "ratio" (ratio traced.wall_s untraced.wall_s);
    ]
  in
  List.iter (fun (name, unit, v) -> Printf.printf "%-32s %16.4f %s\n" name v unit) metrics;
  Printf.printf "# phase self time (s, share of traced busy time):\n";
  Hashtbl.fold (fun name (p : Selftime.phase) acc -> (name, p) :: acc) phases []
  |> List.sort (fun (_, (a : Selftime.phase)) (_, b) -> Float.compare b.self_s a.self_s)
  |> List.iter (fun (name, (p : Selftime.phase)) ->
         Printf.printf "#   %-22s %8d calls %10.4f s %6.1f%%\n" name p.calls p.self_s (100.0 *. ratio p.self_s busy));
  let largest = Option.value (Selftime.largest ~keep:in_program phases) ~default:"-" in
  Printf.printf "# largest self-time phase: %s\n" largest;
  Printf.printf "# work counters: ode.substeps=%.0f nnabs.relu_neurons=%.0f reach.steps=%.0f verify.leaves=%.0f cache_hits=%.0f memo_hits=%.0f\n"
    (counter "ode.substeps") (counter "nnabs.relu_neurons") (counter "reach.steps") leaves cache_hits memo_hits;
  print_checks traced;
  let correct = correct untraced && correct traced in
  print_result ~correct ~attempted:(untraced.attempted + traced.attempted) ~failed:(untraced.failed + traced.failed) metrics

(* ----- main ----- *)

(* Before the measured window, a short pass on inputs of another seed
   and a throwaway environment runs every code path once and grows the
   heap. *)
let warm_up_s = 2.0

let warm_up opts table_file =
  let env = setup opts.workload table_file in
  ignore (run_pass { opts with seed = opts.seed lxor 0x3a3a } env (Seconds warm_up_s) : unit -> pass);
  close_env env

let () =
  let opts = parse_args Sys.argv in
  if not (List.for_all Sys.file_exists (net_paths ())) then begin
    prerr_endline "perfbench: run from the repository root (the committed data/*.nnet are missing)";
    exit 2
  end;
  let table_file = table_file () in
  warm_up opts table_file;
  let env = setup opts.workload table_file in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d\n" opts.name opts.seed opts.seconds
    (if opts.trace then 1 else 0);
  Printf.printf "# provenance %s\n"
    (J.to_string
       (J.Obj
          [
            ("host_cores", J.Num (float_of_int host_cores));
            ("workers", J.Num (float_of_int (workers_of opts.workload)));
            ("git_rev", J.Str (git_rev ()));
            ("ocaml", J.Str Sys.ocaml_version);
            ("seed", J.Num (float_of_int opts.seed));
          ]));
  if not opts.trace then begin
    let s =
      {
        (* the measured server's F# cache is left as it is *)
        fresh_env = (fun () -> setup ~clear_cache:false opts.workload table_file);
        every = opts.seconds /. float_of_int setup_reps;
        taken = [];
      }
    in
    sampler := Some s;
    let finish = run_pass opts env (Seconds opts.seconds) in
    sampler := None;
    (* a run that ended early takes its remaining samples now *)
    while List.length s.taken < setup_reps do
      take_setup_sample s
    done;
    let p = finish () in
    close_env env;
    end_to_end opts ~setup_s:(Pct.median s.taken) p
  end
  else begin
    let limit = Items (trace_items opts.workload) in
    let untraced = run_pass opts env limit () in
    close_env env;
    let env = setup opts.workload table_file in
    Metrics.reset ();
    let gc0 = Gc.quick_stat () in
    Trace.enable ();
    let finish = run_pass opts env limit in
    Trace.disable ();
    let gc1 = Gc.quick_stat () in
    let snap = Metrics.snapshot () in
    let events = Trace.events () in
    Trace.clear ();
    let traced = finish () in
    per_layer opts env ~table_file ~untraced ~traced ~events ~snap ~gc0 ~gc1;
    close_env env
  end
