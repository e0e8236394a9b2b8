(* The scheduler must reproduce the sequential depth-first refinement
   (test/dfs_oracle.ml): same verdicts, leaves, coverage and journal
   records for any worker count and input-split depth, with faults
   isolated to one leaf, orphans of dead workers re-queued, and mid-cell
   resume from journaled leaf records.  Plus the partition/verify-layer
   correctness fixes that rode along: NaN-proof influence ordering and
   count-once progress. *)

module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module E = Nncs_ode.Expr
module Net = Nncs_nn.Network
module Act = Nncs_nn.Activation
module Mat = Nncs_linalg.Mat
module Command = Nncs.Command
module Symstate = Nncs.Symstate
module Spec = Nncs.Spec
module Controller = Nncs.Controller
module System = Nncs.System
module Verify = Nncs.Verify
module Partition = Nncs.Partition
module Journal = Nncs_resilience.Journal
module Fault = Nncs_resilience.Fault
module Metrics = Nncs_obs.Metrics

let check = Alcotest.(check bool)

(* the "homing" loop of test_verify: x' = u, argmin picks -1 above x = 1 *)

let homing_commands = Command.make [| [| -1.0 |]; [| -0.5 |] |]

let homing_network () =
  let output =
    {
      Net.weights = Mat.init 2 1 (fun i _ -> [| -1.0; 1.0 |].(i));
      biases = [| 1.0; -1.0 |];
      activation = Act.Linear;
    }
  in
  Net.make ~input_dim:1 [| output |]

(* [horizon_steps] tunes the workload shape: with the default 10 every
   cell proves at depth 0; with 3 (tau = 1.5 s) a cell needs
   [hi - 0.2 <= 1.5] to prove termination, so the rightmost cells fail
   and refine to max_depth — the skewed partition the leaf frontier is
   built for *)
let homing_plant = Nncs_ode.Ode.make ~dim:1 ~input_dim:1 [| E.input 0 |]

let homing_system_of ~horizon_steps controller =
  System.make ~plant:homing_plant ~controller
    ~erroneous:(Spec.coord_gt ~name:"blowup" ~dim:0 ~bound:4.0)
    ~target:(Spec.coord_lt ~name:"home" ~dim:0 ~bound:0.2)
    ~horizon_steps

let homing_system ?(horizon_steps = 10) ?nn_splits () =
  homing_system_of ~horizon_steps
    (Controller.make ~period:0.5 ~commands:homing_commands
       ~networks:[| homing_network () |]
       ~select:(fun _ -> 0)
       ~pre:Controller.identity_pre ~pre_abs:Controller.identity_pre_abs
       ~post:Controller.argmin_post ~post_abs:Controller.argmin_post_abs
       ?nn_splits ())

let grid n =
  Partition.with_command 0
    (Partition.grid (B.of_bounds [| (1.0, 2.0) |]) ~cells:[| n |])

let config workers =
  { Verify.default_config with strategy = Verify.All_dims [ 0 ]; workers }

let strip_elapsed (r : Verify.report) =
  ( r.Verify.coverage,
    r.Verify.proved_cells,
    r.Verify.unknown_cells,
    r.Verify.total_cells,
    List.map
      (fun (c : Verify.cell_report) ->
        ( c.Verify.index,
          c.Verify.proved_fraction,
          List.map
            (fun (l : Verify.leaf) ->
              ( B.to_string l.Verify.state.Symstate.box,
                l.Verify.state.Symstate.cmd,
                l.Verify.depth,
                l.Verify.proved,
                l.Verify.rungs,
                match l.Verify.result with
                | Verify.Completed _ -> "completed"
                | Verify.Failed f -> Nncs_resilience.Failure.to_string f ))
            c.Verify.leaves ))
      r.Verify.cells )

(* ----- equivalence with the sequential depth-first refinement ----- *)

let leaf_count (r : Verify.report) =
  List.fold_left
    (fun n (c : Verify.cell_report) -> n + List.length c.Verify.leaves)
    0 r.Verify.cells

(* a journal leaf record as bytes, with the run-dependent elapsed field
   zeroed *)
let record_bytes leaf =
  Nncs_obs.Json.to_string (Verify.leaf_to_json { leaf with Verify.elapsed = 0.0 })

(* [nn_splits > 0] routes every F# query through the input-splitting
   transformer: the leaf path and the oracle must still agree.
   [roots] is the number of root cells, [worker_counts] the pool sizes
   checked against the oracle *)
let test_equivalence ?(roots = 3) ?(worker_counts = [ 1; 2; 4 ]) ~nn_splits ()
    =
  let sys = homing_system ~horizon_steps:3 ~nn_splits () in
  let cells = grid roots in
  let oracle = Dfs_oracle.verify_partition ~config:(config 1) sys cells in
  (* the fixture must actually refine, or the frontier is never used *)
  check "fixture exercises splitting" true
    (List.exists
       (fun (c : Verify.cell_report) -> List.length c.Verify.leaves > 1)
       oracle.Verify.cells);
  let oracle_records =
    List.sort compare
      (List.concat_map
         (fun (c : Verify.cell_report) -> List.map record_bytes c.Verify.leaves)
         oracle.Verify.cells)
  in
  List.iter
    (fun workers ->
      let recs = ref [] and m = Mutex.create () in
      let r =
        Verify.verify_partition ~config:(config workers)
          ~on_leaf:(fun _ _ leaf ->
            let b = record_bytes leaf in
            Mutex.lock m;
            recs := b :: !recs;
            Mutex.unlock m)
          sys cells
      in
      Alcotest.(check int)
        (Printf.sprintf "leaf count preserved (workers=%d)" workers)
        (leaf_count oracle) (leaf_count r);
      check
        (Printf.sprintf "identical report modulo elapsed (workers=%d)" workers)
        true
        (strip_elapsed oracle = strip_elapsed r);
      check
        (Printf.sprintf "journal leaf records byte-identical (workers=%d)"
           workers)
        true
        (List.sort compare !recs = oracle_records))
    worker_counts

(* cells whose previous commands select different networks share one
   frontier; verdicts still match the oracle's *)
let test_mixed_network_frontier () =
  let net_of bias =
    let output =
      {
        Net.weights = Mat.init 2 1 (fun i _ -> [| -1.0; 1.0 |].(i));
        biases = [| bias; -.bias |];
        activation = Act.Linear;
      }
    in
    Net.make ~input_dim:1 [| output |]
  in
  let sys =
    homing_system_of ~horizon_steps:3
      (Controller.make ~period:0.5 ~commands:homing_commands
         ~networks:[| net_of 1.0; net_of 0.25 |]
         ~select:(fun c -> c)
         ~pre:Controller.identity_pre ~pre_abs:Controller.identity_pre_abs
         ~post:Controller.argmin_post ~post_abs:Controller.argmin_post_abs ())
  in
  (* alternate initial commands so adjacent frontier tasks need
     different networks *)
  let cells =
    List.mapi
      (fun i (st : Symstate.t) -> Symstate.make st.Symstate.box (i mod 2))
      (grid 4)
  in
  let oracle = Dfs_oracle.verify_partition ~config:(config 1) sys cells in
  List.iter
    (fun workers ->
      check
        (Printf.sprintf "mixed-network frontier identical (workers=%d)" workers)
        true
        (strip_elapsed oracle
        = strip_elapsed
            (Verify.verify_partition ~config:(config workers) sys cells)))
    [ 1; 2 ]

(* ----- per-leaf fault isolation ----- *)

let test_poisoned_leaf_isolated ~workers () =
  let sys = homing_system () in
  let cells = grid 8 in
  let baseline = Dfs_oracle.verify_partition ~config:(config 1) sys cells in
  Fun.protect ~finally:Fault.reset (fun () ->
      (* key "3" is cell 3's root leaf (task keys are cell.path) *)
      Fault.arm ~site:"verify.leaf" ~key:"3" (fun () ->
          Stdlib.Failure "boom");
      let poisoned = Verify.verify_partition ~config:(config workers) sys cells in
      Alcotest.(check int) "one unknown cell" 1 poisoned.Verify.unknown_cells;
      List.iter2
        (fun (a : Verify.cell_report) (b : Verify.cell_report) ->
          Alcotest.(check int) "cell order" a.Verify.index b.Verify.index;
          if b.Verify.index = 3 then
            check "poisoned leaf is Worker_crashed" true
              (List.exists
                 (fun l ->
                   match Verify.leaf_failure l with
                   | Some (Nncs_resilience.Failure.Worker_crashed _) -> true
                   | _ -> false)
                 b.Verify.leaves)
          else
            Alcotest.(check (float 0.0))
              "sibling verdict matches serial" a.Verify.proved_fraction
              b.Verify.proved_fraction)
        baseline.Verify.cells poisoned.Verify.cells)

(* ----- a dying worker's in-flight leaf is re-queued, not lost ----- *)

let test_fatal_death_requeues_orphan () =
  let sys = homing_system () in
  let cells = grid 8 in
  let baseline = Dfs_oracle.verify_partition ~config:(config 1) sys cells in
  let requeued = Metrics.counter "resilience.requeued_leaves" in
  let before = Metrics.value requeued in
  Fun.protect ~finally:Fault.reset (fun () ->
      (* one-shot fatal fault: the claiming domain dies, the orphaned
         leaf is re-queued and the retry (no fault left) succeeds *)
      Fault.arm ~site:"verify.leaf" ~key:"5" ~times:1 (fun () -> Sys.Break);
      let report = Verify.verify_partition ~config:(config 2) sys cells in
      check "orphaned leaf was re-queued" true
        (Metrics.value requeued > before);
      Alcotest.(check int) "no unknown cells" 0 report.Verify.unknown_cells;
      check "report identical to serial after recovery" true
        (strip_elapsed baseline = strip_elapsed report))

(* ----- mid-cell resume from journaled leaf records ----- *)

let test_midcell_resume () =
  let sys = homing_system ~horizon_steps:3 () in
  let cells = grid 3 in
  let total = List.length cells in
  let cfg = config 1 in
  let recs = ref [] in
  let baseline =
    Verify.verify_partition ~config:cfg
      ~on_leaf:(fun cell path leaf -> recs := (cell, path, leaf) :: !recs)
      sys cells
  in
  let all = List.rev !recs in
  check "every terminal leaf journaled" true
    (List.length all
    = List.fold_left
        (fun n (c : Verify.cell_report) -> n + List.length c.Verify.leaves)
        0 baseline.Verify.cells);
  (* simulate a kill partway through: the journal holds the meta line and
     every other leaf record, and no completed-cell record *)
  let kept = List.filteri (fun i _ -> i mod 2 = 0) all in
  check "interruption leaves a strict subset" true
    (kept <> [] && List.length kept < List.length all);
  let path = Filename.temp_file "nncs_sched" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Journal.with_writer path (fun w ->
          Journal.write w
            (Verify.journal_meta ~total
               ~fingerprint:(Verify.fingerprint ~config:cfg sys cells));
          List.iter
            (fun (cell, p, leaf) ->
              Journal.write w (Verify.leaf_record_to_json ~cell ~path:p leaf))
            kept);
      let j = Verify.load_journal path in
      Alcotest.(check int) "no completed cells in journal" 0
        (List.length j.Verify.completed_cells);
      Alcotest.(check int) "journaled leaves grouped by cell"
        (List.length kept)
        (List.fold_left
           (fun n (_, ls) -> n + List.length ls)
           0 j.Verify.partial_leaves);
      let replayed = Metrics.counter "verify.replayed_leaves" in
      let before = Metrics.value replayed in
      let resumed_recs = ref [] in
      let resumed =
        Verify.verify_partition ~config:cfg ~partial:j.Verify.partial_leaves
          ~on_leaf:(fun cell p leaf -> resumed_recs := (cell, p, leaf) :: !resumed_recs)
          sys cells
      in
      Alcotest.(check int) "recorded leaves replayed, not recomputed"
        (List.length kept)
        (Metrics.value replayed - before);
      Alcotest.(check int) "replayed leaves not re-journaled"
        (List.length all - List.length kept)
        (List.length !resumed_recs);
      check "resumed report identical to the uninterrupted run" true
        (strip_elapsed baseline = strip_elapsed resumed))

(* ----- problem fingerprint ----- *)

let test_fingerprint_sensitivity () =
  let sys = homing_system () in
  let cells = grid 4 in
  let cfg = config 1 in
  let fp = Verify.fingerprint ~config:cfg sys cells in
  Alcotest.(check string)
    "deterministic" fp
    (Verify.fingerprint ~config:cfg sys cells);
  Alcotest.(check int) "16 hex digits" 16 (String.length fp);
  let differs what fp' = check ("sensitive to " ^ what) true (fp <> fp') in
  differs "partition bounds"
    (Verify.fingerprint ~config:cfg sys
       (Partition.with_command 0
          (Partition.grid (B.of_bounds [| (1.0, 2.125) |]) ~cells:[| 4 |])));
  differs "partition size" (Verify.fingerprint ~config:cfg sys (grid 5));
  differs "max_depth"
    (Verify.fingerprint ~config:{ cfg with Verify.max_depth = 3 } sys cells);
  differs "horizon"
    (Verify.fingerprint ~config:cfg
       { sys with System.horizon_steps = 11 }
       cells);
  (* Spec.t is opaque: a changed erroneous set must flip a probe bit even
     when its name is unchanged *)
  differs "spec semantics (same name)"
    (Verify.fingerprint ~config:cfg
       {
         sys with
         System.erroneous = Spec.coord_gt ~name:"blowup" ~dim:0 ~bound:1.5;
       }
       cells)

(* the worker count does not change the problem: journals written at
   one worker count resume at any other *)
let test_fingerprint_agnostic () =
  let sys = homing_system () in
  let cells = grid 4 in
  Alcotest.(check string)
    "fingerprint ignores workers"
    (Verify.fingerprint ~config:(config 1) sys cells)
    (Verify.fingerprint ~config:(config 4) sys cells)

(* ----- influence_order with NaN scores ----- *)

(* A 2-dim plant whose controller pre-processing degenerates to an
   infinite network input exactly when dimension 1 is bisected: the
   influence score of dim 1 becomes NaN (width of an [inf, inf] score
   interval) while dim 0's stays finite.  The order must put the finite
   dimension first — under polymorphic compare (or bare Float.compare)
   NaN sorted *below* every number and silently won the
   "most influential" slot. *)
let test_influence_order_nan () =
  let controller =
    Controller.make ~period:0.5 ~commands:homing_commands
      ~networks:[| homing_network () |]
      ~select:(fun _ -> 0)
      ~pre:(fun s -> [| s.(0) |])
      ~pre_abs:(fun b ->
        if I.lo (B.get b 1) = 6.0 then
          B.of_intervals [| I.make infinity infinity |]
        else B.of_intervals [| B.get b 0 |])
      ~post:Controller.argmin_post ~post_abs:Controller.argmin_post_abs
      ~domain:Nncs_nnabs.Transformer.Interval ()
  in
  let sys =
    System.make
      ~plant:(Nncs_ode.Ode.make ~dim:2 ~input_dim:1 [| E.input 0; E.const 0.0 |])
      ~controller
      ~erroneous:(Spec.coord_gt ~name:"blowup" ~dim:0 ~bound:4.0)
      ~target:(Spec.coord_lt ~name:"home" ~dim:0 ~bound:0.2)
      ~horizon_steps:10
  in
  (* bisecting dim 1 of [5, 7] produces the half with lo = 6.0 that the
     pre-processing maps to an infinite input, so dim 1 scores NaN *)
  let cell = Symstate.make (B.of_bounds [| (0.0, 1.0); (5.0, 7.0) |]) 0 in
  Alcotest.(check (list int))
    "NaN-scored dimension goes last" [ 0; 1 ]
    (Verify.influence_order sys cell [ 0; 1 ]);
  Alcotest.(check (list int))
    "candidate order does not matter" [ 0; 1 ]
    (Verify.influence_order sys cell [ 1; 0 ])

(* ----- progress counts each cell at most once ----- *)

let test_progress_counts_once_after_crash () =
  let sys = homing_system () in
  let cells = grid 8 in
  let total = List.length cells in
  let seen = ref [] in
  let mutex = Mutex.create () in
  let progress d t =
    Mutex.lock mutex;
    seen := (d, t) :: !seen;
    Mutex.unlock mutex
  in
  Fun.protect ~finally:Fault.reset (fun () ->
      (* a one-shot fatal fault kills one of the two workers on cell 2's
         root leaf: the orphan is re-queued and re-run by the survivor,
         and must not be counted a second time or push progress past
         [total] *)
      let requeued = Metrics.counter "resilience.requeued_leaves" in
      let before = Metrics.value requeued in
      Fault.arm ~site:"verify.cell" ~key:"2" ~times:1 (fun () -> Sys.Break);
      let report =
        Verify.verify_partition ~config:(config 2) ~progress sys cells
      in
      Alcotest.(check int) "all cells reported" total report.Verify.total_cells;
      Alcotest.(check int) "no unknown cells after recovery" 0
        report.Verify.unknown_cells;
      check "crash recovery actually ran" true
        (Metrics.value requeued > before);
      Alcotest.(check int) "exactly one callback per cell" total
        (List.length !seen);
      check "every total is the cell count" true
        (List.for_all (fun (_, t) -> t = total) !seen);
      Alcotest.(check (list int))
        "distinct live counts, never past total"
        (List.init total (fun i -> i + 1))
        (List.sort compare (List.map fst !seen)))

let () =
  Alcotest.run "scheduler"
    [
      ( "leaf scheduler",
        [
          Alcotest.test_case "equivalent to DFS oracle" `Quick
            (test_equivalence ~nn_splits:0);
          Alcotest.test_case "poisoned leaf isolated" `Quick
            (test_poisoned_leaf_isolated ~workers:4);
          Alcotest.test_case "fatal death re-queues orphan" `Quick
            test_fatal_death_requeues_orphan;
          Alcotest.test_case "mid-cell resume" `Quick test_midcell_resume;
        ] );
      ( "scheduler",
        [
          (* pool sizes that do not divide the 5 roots, and one larger
             than the root count, so some workers start idle *)
          Alcotest.test_case "equivalence across workers" `Quick
            (test_equivalence ~roots:5 ~worker_counts:[ 3; 8 ] ~nn_splits:0);
          Alcotest.test_case "equivalence with nn_splits" `Quick
            (test_equivalence ~nn_splits:2);
          Alcotest.test_case "mixed-network frontier" `Quick
            test_mixed_network_frontier;
          Alcotest.test_case "poisoned leaf fails alone" `Quick
            (test_poisoned_leaf_isolated ~workers:1);
          Alcotest.test_case "fingerprint agnostic" `Quick
            test_fingerprint_agnostic;
        ] );
      ( "bugfixes",
        [
          Alcotest.test_case "fingerprint sensitivity" `Quick
            test_fingerprint_sensitivity;
          Alcotest.test_case "influence order with NaN" `Quick
            test_influence_order_nan;
          Alcotest.test_case "progress counts once" `Quick
            test_progress_counts_once_after_crash;
        ] );
    ]
