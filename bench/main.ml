(* Benchmark harness: regenerates every figure / quantitative claim of
   the paper's evaluation (see DESIGN.md section 4 for the experiment
   index).  Run:

     dune exec bench/main.exe                 # all experiments, scaled
     dune exec bench/main.exe -- e1 e5        # a subset
     dune exec bench/main.exe -- timing       # Bechamel micro-benchmarks

   Absolute numbers differ from the paper (their testbed: 2 x 12 cores
   for 12 days; here: minutes on one core, a scaled partition and
   re-trained networks) — the *shapes* are the reproduction target: who
   wins, by what rough factor, and where the hard regions lie. *)

module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module Rng = Nncs_linalg.Rng
module D = Nncs_acasxu.Defs
module Dyn = Nncs_acasxu.Dynamics
module S = Nncs_acasxu.Scenario
module T = Nncs_acasxu.Training
module Net = Nncs_nn.Network
module Tr = Nncs_nnabs.Transformer
open Nncs

let section name = Printf.printf "\n===== %s =====\n%!" name
let now () = Unix.gettimeofday ()

(* --tiny: deliberately under-trained models (CI smoke mode — seconds
   instead of hours; verdicts are meaningless, shapes are not) *)
let tiny = ref false

(* networks are shared by most experiments *)
let networks =
  lazy
    (if !tiny then
       let dir =
         Filename.concat (Filename.get_temp_dir_name ()) "nncs-bench-tiny-nets"
       in
       snd
         (T.load_or_train ~spec:T.tiny_spec
            ~policy_config:T.tiny_policy_config ~dir ())
     else snd (T.load_or_train ~dir:"data" ()))

let system () = S.system ~networks:(Lazy.force networks) ()

(* ------------------------------------------------------------------ *)
(* E1 (Fig 7): enclosure tightness vs number of integration steps M    *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1 / Fig 7 - validated simulation: M integration steps vs tightness";
  (* one control period of the ACAS Xu plant from a partition-sized box,
     strong-left command *)
  let state =
    B.of_bounds
      [| (-100.0, 0.0); (7900.0, 8000.0); (3.0, 3.05); (700.0, 700.0); (600.0, 600.0) |]
  in
  let u = Command.value_box D.commands (D.index D.Strong_left) in
  Printf.printf "%4s  %14s  %14s  %10s\n" "M" "piece width" "endpoint width" "time (ms)";
  List.iter
    (fun m ->
      let t0 = now () in
      let r =
        Nncs_ode.Simulate.simulate Dyn.plant ~t0:0.0 ~period:D.period_s
          ~steps:m ~order:6 ~state ~inputs:u
      in
      let dt = 1000.0 *. (now () -. t0) in
      (* Fig 7 compares how snugly the collection of boxes hugs the
         swept tube: the per-piece position width is the measure (the
         hull of all pieces is dominated by the 1300 ft of travel and
         barely depends on M) *)
      let pos_width b = Float.max (I.width (B.get b D.ix)) (I.width (B.get b D.iy)) in
      let pieces = r.Nncs_ode.Simulate.pieces in
      let mean =
        Array.fold_left (fun a p -> a +. pos_width p) 0.0 pieces
        /. float_of_int (Array.length pieces)
      in
      Printf.printf "%4d  %14.2f  %14.2f  %10.2f\n" m mean
        (pos_width r.Nncs_ode.Simulate.endpoint) dt)
    [ 1; 2; 4; 10; 20 ];
  Printf.printf "(expected shape: per-piece width shrinks sharply with M —\n\
                \ fewer unreachable states inside the enclosure, cf. Fig 7)\n"

(* ------------------------------------------------------------------ *)
(* E1b: direct interval Taylor vs Loehner mean-value QR scheme          *)
(* ------------------------------------------------------------------ *)

let e1b () =
  section "E1b / Section 6.2 - direct vs Loehner validated simulation";
  let module Eo = Nncs_ode.Expr in
  (* a rotation-heavy case (harmonic oscillator over several turns) and
     the ACAS Xu plant over one control period *)
  let oscillator =
    Nncs_ode.Ode.make ~dim:2 ~input_dim:1 [| Eo.state 1; Eo.neg (Eo.state 0) |]
  in
  let cases =
    [
      ( "oscillator, 2 turns",
        oscillator,
        B.of_bounds [| (0.9, 1.1); (-0.1, 0.1) |],
        B.of_point [| 0.0 |],
        4.0 *. Float.pi,
        100 );
      ( "ACAS Xu, 1 period SL",
        Dyn.plant,
        B.of_bounds
          [| (-100.0, 0.0); (7900.0, 8000.0); (3.0, 3.05); (700.0, 700.0); (600.0, 600.0) |],
        Command.value_box D.commands (D.index D.Strong_left),
        D.period_s,
        10 );
    ]
  in
  Printf.printf "%-22s %14s %14s %10s %10s\n" "case" "direct width"
    "lohner width" "direct ms" "lohner ms";
  List.iter
    (fun (name, sys, state, u, period, steps) ->
      let run scheme =
        let t0 = now () in
        let r =
          Nncs_ode.Simulate.simulate ~scheme sys ~t0:0.0 ~period ~steps
            ~order:8 ~state ~inputs:u
        in
        (B.max_width r.Nncs_ode.Simulate.endpoint, 1000.0 *. (now () -. t0))
      in
      let wd, td = run Nncs_ode.Simulate.Direct in
      let wl, tl = run Nncs_ode.Simulate.Lohner in
      Printf.printf "%-22s %14.4f %14.4f %10.2f %10.2f\n" name wd wl td tl)
    cases;
  Printf.printf "(expected: Loehner pays ~2-5x time and wins dramatically on\n\
                \ rotation-heavy flows; near parity on short mild steps)\n"

(* ------------------------------------------------------------------ *)
(* E2-E4 (Fig 9a, Fig 9b, overall coverage): the main experiment       *)
(* ------------------------------------------------------------------ *)

let main_experiment_cache :
    (int * (int * Verify.cell_report) list * float) option ref =
  ref None

let arcs_e2 = 18
let headings_e2 = 6

let run_main_experiment () =
  match !main_experiment_cache with
  | Some r -> r
  | None ->
      let sys = system () in
      let cells = S.initial_cells ~arcs:arcs_e2 ~headings:headings_e2 () in
      let config =
        {
          Verify.default_config with
          reach = { Reach.default_config with keep_sets = false };
          strategy = Verify.All_dims [ D.ix; D.iy; D.ipsi ];
          max_depth = 1;
        }
      in
      Printf.printf "verifying %d cells (%d arcs x %d headings, depth 1)...\n%!"
        (List.length cells) arcs_e2 headings_e2;
      let t0 = now () in
      let report = Verify.verify_partition ~config sys (List.map snd cells) in
      let dt = now () -. t0 in
      let tagged =
        List.map
          (fun (c : Verify.cell_report) -> (fst (List.nth cells c.Verify.index), c))
          report.Verify.cells
      in
      let r = (arcs_e2, tagged, dt) in
      main_experiment_cache := Some r;
      r

let e2 () =
  section "E2 / Fig 9a - safety map over the initial states (ribbon partition)";
  let arcs, tagged, _ = run_main_experiment () in
  Printf.printf
    "each row = one arc of the sensor circle (bearing of first detection)\n";
  Printf.printf "%4s %12s  %s\n" "arc" "bearing(deg)" "heading cells (entry cone)";
  List.iter
    (fun arc ->
      let mine = List.filter (fun (a, _) -> a = arc) tagged in
      let row =
        String.concat ""
          (List.map
             (fun (_, (c : Verify.cell_report)) ->
               if c.Verify.proved_fraction >= 1.0 -. 1e-9 then "o"
               else if c.Verify.proved_fraction > 0.0 then "+"
               else "x")
             mine)
      in
      Printf.printf "%4d %12.0f  %s\n" arc
        (S.arc_center_angle ~arcs arc *. 180.0 /. Float.pi)
        row)
    (List.init arcs Fun.id);
  Printf.printf "(o fully proved, + partially proved after refinement, x not proved)\n"

let e3 () =
  section "E3 / Fig 9b - coverage and time per arc (bearing of the intruder)";
  let arcs, tagged, _ = run_main_experiment () in
  Printf.printf "%4s %12s %12s %10s\n" "arc" "bearing(deg)" "coverage(%)" "time(s)";
  List.iter
    (fun arc ->
      let mine = List.filter_map (fun (a, c) -> if a = arc then Some c else None) tagged in
      let cov = Verify.coverage_of_cells mine in
      let time =
        List.fold_left (fun a (c : Verify.cell_report) -> a +. c.Verify.elapsed) 0.0 mine
      in
      Printf.printf "%4d %12.0f %12.1f %10.2f\n" arc
        (S.arc_center_angle ~arcs arc *. 180.0 /. Float.pi)
        cov time)
    (List.init arcs Fun.id);
  Printf.printf
    "(expected shape: dips in coverage / spikes in time around the hard\n\
    \ bearings; roughly symmetric about the ownship axis, cf. Fig 9b)\n"

let e4 () =
  section "E4 / Section 7.2 - overall coverage";
  let _, tagged, dt = run_main_experiment () in
  let cells = List.map snd tagged in
  let coverage = Verify.coverage_of_cells cells in
  let proved =
    List.length
      (List.filter
         (fun (c : Verify.cell_report) -> c.Verify.proved_fraction >= 1.0 -. 1e-9)
         cells)
  in
  Printf.printf "partition: %d arcs x %d headings = %d cells, split depth 1\n"
    arcs_e2 headings_e2 (List.length cells);
  Printf.printf "coverage c = %.1f%%  (paper: 90.3%% at their scale)\n" coverage;
  Printf.printf "fully proved cells: %d/%d, total time %.1f s\n" proved
    (List.length cells) dt

(* ------------------------------------------------------------------ *)
(* E5: Gamma (Algorithm 2) accuracy / time trade-off                    *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5 / Section 6.4 - Gamma trade-off (join threshold)";
  let sys = system () in
  (* a crossing cell that stresses the command branching *)
  let cells = S.initial_cells ~arcs:18 ~headings:6 ~arc_indices:[ 3 ] () in
  let cell = snd (List.nth cells 2) in
  Printf.printf "%6s %8s %12s %12s %10s\n" "Gamma" "proved" "max states" "joins" "time(s)";
  List.iter
    (fun gamma ->
      let t0 = now () in
      let r =
        Reach.analyze
          ~config:{ Reach.default_config with gamma; keep_sets = false }
          sys
          (Symset.of_list [ cell ])
      in
      Printf.printf "%6d %8b %12d %12d %10.2f\n" gamma (Reach.is_proved_safe r)
        r.Reach.max_states r.Reach.total_joins
        (now () -. t0))
    [ 5; 10; 20; 40 ];
  Printf.printf
    "(larger Gamma: fewer joins, tighter sets, more time — Remark 3\n\
    \ requires Gamma >= P = 5)\n"

(* ------------------------------------------------------------------ *)
(* E6: NN abstract domains tightness / cost                             *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6 / Section 6.6 - F# abstract domains on the trained networks";
  let nets = Lazy.force networks in
  let rng = Rng.create 2718 in
  let widths = [ 0.01; 0.03; 0.1 ] in
  Printf.printf "%12s %12s %12s %12s %14s\n" "input width" "interval" "symbolic"
    "affine" "sym+split(2)";
  List.iter
    (fun w ->
      let boxes =
        List.init 50 (fun _ ->
            let center =
              [|
                Rng.uniform rng 0.1 1.0;
                Rng.uniform rng (-0.9) 0.9;
                Rng.uniform rng (-0.9) 0.9;
                0.7;
                0.6;
              |]
            in
            ( Rng.int rng 5,
              B.of_intervals (Array.map (fun c -> I.make (c -. w) (c +. w)) center) ))
      in
      let mean_width domain splits =
        let acc =
          List.fold_left
            (fun acc (k, box) ->
              let out =
                if splits = 0 then Tr.propagate domain nets.(k) box
                else Tr.propagate_split domain ~splits nets.(k) box
              in
              acc +. B.max_width out)
            0.0 boxes
        in
        acc /. float_of_int (List.length boxes)
      in
      Printf.printf "%12.3f %12.4f %12.4f %12.4f %14.4f\n" w
        (mean_width Tr.Interval 0) (mean_width Tr.Symbolic 0)
        (mean_width Tr.Affine 0) (mean_width Tr.Symbolic 2))
    widths;
  Printf.printf
    "(expected: symbolic < interval, gap growing with the input width;\n\
    \ input splitting tightens further)\n"

(* ------------------------------------------------------------------ *)
(* E7: sound flow enclosure vs discrete-instant baseline                *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7 / Section 2 - vs the discrete-instant baseline [7]";
  (* the crafted oscillator whose excursion into E happens strictly
     between sampling instants (see test_baseline.ml) *)
  let module Eo = Nncs_ode.Expr in
  let omega = 2.0 *. Float.pi in
  let plant =
    Nncs_ode.Ode.make ~dim:2 ~input_dim:1
      [| Eo.state 1; Eo.(scale (-.(omega *. omega)) (state 0)) |]
  in
  let commands = Command.make [| [| 0.0 |] |] in
  let constant_net =
    Net.make ~input_dim:1
      [|
        {
          Net.weights = Nncs_linalg.Mat.create 1 1 0.0;
          biases = [| 0.0 |];
          activation = Nncs_nn.Activation.Linear;
        };
      |]
  in
  let controller =
    Controller.make ~period:1.0 ~commands ~networks:[| constant_net |]
      ~select:(fun _ -> 0)
      ~pre:(fun s -> [| s.(0) |])
      ~pre_abs:(fun b -> B.of_intervals [| B.get b 0 |])
      ~post:(fun _ -> 0)
      ~post_abs:(fun _ -> [ 0 ])
      ()
  in
  let sys =
    System.make ~plant ~controller
      ~erroneous:(Spec.coord_gt ~name:"peak" ~dim:0 ~bound:0.9)
      ~target:(Spec.coord_lt ~name:"never" ~dim:0 ~bound:(-100.0))
      ~horizon_steps:3
  in
  let cell = Symstate.make (B.of_bounds [| (0.0, 0.0); (5.9, 6.0) |]) 0 in
  let discrete = Nncs_baseline.Discrete.analyze sys cell in
  let reach = Reach.analyze sys (Symset.of_list [ cell ]) in
  let ground_truth =
    Concrete.simulate ~substeps:100 sys ~init_state:[| 0.0; 5.95 |] ~init_cmd:0
  in
  Printf.printf "system: harmonic oscillator peaking above E between samples\n";
  Printf.printf "%-34s %s\n" "discrete-instant baseline [7]:"
    (match discrete with
    | Nncs_baseline.Discrete.No_collision_observed -> "NO VIOLATION SEEN (unsound!)"
    | Nncs_baseline.Discrete.Collision_at_sample _ -> "violation at a sample");
  Printf.printf "%-34s %s\n" "our flow enclosure (Algorithm 3):"
    (match reach.Reach.outcome with
    | Reach.Reached_error { step } -> Printf.sprintf "contact with E at step %d" step
    | Reach.Proved_safe | Reach.Horizon_exhausted -> "missed (unexpected)");
  Printf.printf "%-34s %s\n" "ground truth (dense simulation):"
    (match ground_truth.Concrete.termination with
    | Concrete.Hit_error t -> Printf.sprintf "E entered at t = %.2f s (between samples)" t
    | Concrete.Terminated _ | Concrete.Horizon_end -> "no excursion (unexpected)")

(* ------------------------------------------------------------------ *)
(* E8: falsification as the complement of the proof                     *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8 / Section 2 - falsification on hard vs easy cells";
  let sys = system () in
  let module F = Nncs_baseline.Falsify in
  let cell_of arc_deg k =
    let arcs = 72 in
    let arc = int_of_float (float_of_int arcs *. arc_deg /. 360.0) in
    snd (List.nth (S.initial_cells ~arcs ~headings:24 ~arc_indices:[ arc ] ()) k)
  in
  let run name cell shots =
    let t0 = now () in
    let r =
      F.falsify ~config:{ F.default_config with shots } sys ~cell
        ~metric:F.acasxu_metric
    in
    Printf.printf "%-24s %5d sims  best objective %8.1f ft  %-13s  %.1f s\n" name
      r.F.simulations r.F.best_metric
      (if r.F.witness <> None then "WITNESS FOUND" else "none found")
      (now () -. t0)
  in
  run "head-on (hard)" (cell_of 90.0 11) 60;
  run "oblique (easy)" (cell_of 20.0 4) 25;
  Printf.printf
    "(expected: a concrete collision witness in the head-on sliver,\n\
    \ nothing on the oblique cell — where reachability supplies the proof)\n"

(* ------------------------------------------------------------------ *)
(* E9: split refinement depth vs coverage                               *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9 / Section 7.1 - split refinement: coverage vs max depth";
  let sys = system () in
  (* a coarse slice of the ribbon around a crossing bearing *)
  let cells =
    List.map snd (S.initial_cells ~arcs:12 ~headings:4 ~arc_indices:[ 2; 3 ] ())
  in
  Printf.printf "%6s %12s %12s %10s\n" "depth" "coverage(%)" "proved cells" "time(s)";
  List.iter
    (fun depth ->
      let config =
        {
          Verify.default_config with
          reach = { Reach.default_config with keep_sets = false };
          strategy = Verify.All_dims [ D.ix; D.iy; D.ipsi ];
          max_depth = depth;
        }
      in
      let report = Verify.verify_partition ~config sys cells in
      Printf.printf "%6d %12.1f %9d/%-2d %10.1f\n" depth report.Verify.coverage
        report.Verify.proved_cells report.Verify.total_cells
        report.Verify.elapsed)
    [ 0; 1; 2 ];
  Printf.printf "(expected: coverage rises with depth at increasing cost)\n"

(* ------------------------------------------------------------------ *)
(* E10: influence-guided splitting (paper future work, direction 2)     *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10 / Section 8 - split refinement strategies";
  let sys = system () in
  let cells =
    List.map snd (S.initial_cells ~arcs:24 ~headings:4 ~arc_indices:[ 2 ] ())
  in
  let strategies =
    [
      ("all dims (paper, 2^3)", Verify.All_dims [ D.ix; D.iy; D.ipsi ]);
      ( "influence, take 1 (2^1)",
        Verify.Most_influential { candidates = [ D.ix; D.iy; D.ipsi ]; take = 1 } );
      ( "influence, take 2 (2^2)",
        Verify.Most_influential { candidates = [ D.ix; D.iy; D.ipsi ]; take = 2 } );
    ]
  in
  Printf.printf "%-26s %12s %12s %10s\n" "strategy" "coverage(%)" "leaves" "time(s)";
  List.iter
    (fun (name, strategy) ->
      let config =
        { Verify.default_config with strategy; max_depth = 1 }
      in
      let report = Verify.verify_partition ~config sys cells in
      let leaves =
        List.fold_left
          (fun a (c : Verify.cell_report) -> a + List.length c.Verify.leaves)
          0 report.Verify.cells
      in
      Printf.printf "%-26s %12.1f %12d %10.1f\n" name report.Verify.coverage
        leaves report.Verify.elapsed)
    strategies;
  Printf.printf "(expected: influence-guided splitting reaches similar coverage\n\
                \ with far fewer reachability calls)\n"

(* ------------------------------------------------------------------ *)
(* E11: triage = verification + falsification (future work, dir. 3)    *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "E11 / Section 8 - triage of not-proved cells";
  let sys = system () in
  let module Tri = Nncs_baseline.Triage in
  (* a front-sector band where all three buckets appear *)
  let cells =
    List.map snd (S.initial_cells ~arcs:36 ~headings:6 ~arc_indices:[ 8 ] ())
  in
  let config =
    {
      Tri.verify = { Verify.default_config with max_depth = 0 };
      falsify = { Nncs_baseline.Falsify.default_config with shots = 20 };
      metric = Nncs_baseline.Falsify.acasxu_metric;
    }
  in
  let report = Tri.triage config sys cells in
  Printf.printf "cells: %d   proved %d   falsified %d   unknown %d   (%.1f s)\n"
    (List.length cells) report.Tri.proved report.Tri.falsified
    report.Tri.unknown report.Tri.elapsed;
  List.iter
    (fun (r : Tri.cell_result) ->
      match r.Tri.verdict with
      | Tri.Falsified init ->
          Printf.printf "  counterexample at (%.0f, %.0f, psi=%.3f)\n" init.(0)
            init.(1) init.(2)
      | Tri.Proved | Tri.Unknown -> ())
    report.Tri.results;
  Printf.printf "(the paper's Fig 9a marks cells safe/not-proved; triage further\n\
                \ separates not-proved into really-unsafe vs analysis-too-coarse)\n"

(* ------------------------------------------------------------------ *)
(* E12: controller-abstraction cache - hit rate and speedup             *)
(* ------------------------------------------------------------------ *)

let cache_out = ref "BENCH_abs_cache.json"

(* Verdict signature shared by E12/E13/E14: caching, scheduling and
   serving must be invisible in the results — only the wall clock may
   move.  Quantized cache lookups may widen score boxes, but only
   towards supersets of the command choices; on the benched partitions
   the verdicts must agree leaf for leaf. *)
let bench_leaf_sig (l : Verify.leaf) =
  let r =
    match l.Verify.result with
    | Verify.Completed Reach.Proved_safe -> "safe"
    | Verify.Completed (Reach.Reached_error { step }) ->
        Printf.sprintf "unsafe@%d" step
    | Verify.Completed Reach.Horizon_exhausted -> "horizon"
    | Verify.Failed _ -> "failed"
  in
  Printf.sprintf "%d:%b:%s" l.Verify.depth l.Verify.proved r

let report_signature (report : Verify.report) =
  List.sort compare
    (List.map
       (fun (c : Verify.cell_report) ->
         (c.Verify.index, List.map bench_leaf_sig c.Verify.leaves))
       report.Verify.cells)

let e12 () =
  section "E12 / abs cache - F# memoization: hit rate and speedup";
  (* input splitting (cf. E6's sym+split column) multiplies the per-query
     F# cost by 2^splits while leaving the ODE cost unchanged — the
     regime the memo table targets *)
  let sys = S.system ~networks:(Lazy.force networks) ~nn_splits:2 () in
  let cells =
    (* the tiny slice must survive a few control steps — head-on cells of a
       4-arc partition touch E during the very first flow pipe, before the
       controller is ever consulted, and would leave the cache cold *)
    if !tiny then
      List.map snd (S.initial_cells ~arcs:12 ~headings:4 ~arc_indices:[ 6 ] ())
    else
      List.map snd (S.initial_cells ~arcs:12 ~headings:4 ~arc_indices:[ 2; 3 ] ())
  in
  (* quantum 0 = exact keys: the cached runs are bitwise-identical to the
     uncached one, so the verdict-equality gate below is strict (quantized
     widening is exercised by the soundness tests instead) *)
  let cache_config =
    { Nncs_nnabs.Cache.capacity = 65536; quantum = 0.0; shards = 8 }
  in
  let config abs_cache =
    {
      Verify.default_config with
      reach = { Reach.default_config with keep_sets = false; abs_cache };
      strategy = Verify.All_dims [ D.ix; D.iy; D.ipsi ];
      max_depth = (if !tiny then 0 else 1);
      (* one worker = the calling domain, so the domain-local cache
         survives from the cold run into the warm one *)
      workers = 1;
    }
  in
  let signature = report_signature in
  let m_hits = Nncs_obs.Metrics.counter "nnabs.cache_hits" in
  let m_misses = Nncs_obs.Metrics.counter "nnabs.cache_misses" in
  let m_evictions = Nncs_obs.Metrics.counter "nnabs.cache_evictions" in
  let run label abs_cache =
    let h0 = Nncs_obs.Metrics.value m_hits
    and m0 = Nncs_obs.Metrics.value m_misses
    and e0 = Nncs_obs.Metrics.value m_evictions in
    let t0 = now () in
    let report = Verify.verify_partition ~config:(config abs_cache) sys cells in
    let dt = now () -. t0 in
    let hits = Nncs_obs.Metrics.value m_hits - h0
    and misses = Nncs_obs.Metrics.value m_misses - m0
    and evictions = Nncs_obs.Metrics.value m_evictions - e0 in
    Printf.printf "%-10s %8.2f s   coverage %5.1f%%   hits %7d   misses %7d\n%!"
      label dt report.Verify.coverage hits misses;
    (signature report, dt, hits, misses, evictions)
  in
  let sig_plain, t_plain, _, _, _ = run "uncached" None in
  let sig_cold, t_cold, h_cold, m_cold, e_cold = run "cold" (Some cache_config) in
  let sig_warm, t_warm, h_warm, m_warm, e_warm = run "warm" (Some cache_config) in
  let verdicts_match = sig_plain = sig_cold && sig_plain = sig_warm in
  let rate h m =
    if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
  in
  let speedup_warm = if t_warm > 0.0 then t_plain /. t_warm else 0.0 in
  let speedup_cold = if t_cold > 0.0 then t_plain /. t_cold else 0.0 in
  Printf.printf
    "verdicts identical: %b   cold hit rate %.1f%%   warm hit rate %.1f%%\n"
    verdicts_match
    (100.0 *. rate h_cold m_cold)
    (100.0 *. rate h_warm m_warm);
  Printf.printf "speedup: %.2fx cold, %.2fx warm (uncached / cached time)\n"
    speedup_cold speedup_warm;
  let module J = Nncs_obs.Json in
  let json =
    J.Obj
      [
        ("tiny", J.Bool !tiny);
        ("host_cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
        ("cells", J.Num (float_of_int (List.length cells)));
        ("capacity", J.Num (float_of_int cache_config.Nncs_nnabs.Cache.capacity));
        ("quantum", J.Num cache_config.Nncs_nnabs.Cache.quantum);
        ("shards", J.Num (float_of_int cache_config.Nncs_nnabs.Cache.shards));
        ("t_uncached_s", J.Num t_plain);
        ("t_cold_s", J.Num t_cold);
        ("t_warm_s", J.Num t_warm);
        ("hits_cold", J.Num (float_of_int h_cold));
        ("misses_cold", J.Num (float_of_int m_cold));
        ("evictions_cold", J.Num (float_of_int e_cold));
        ("hit_rate_cold", J.Num (rate h_cold m_cold));
        ("hits_warm", J.Num (float_of_int h_warm));
        ("misses_warm", J.Num (float_of_int m_warm));
        ("evictions_warm", J.Num (float_of_int e_warm));
        ("hit_rate_warm", J.Num (rate h_warm m_warm));
        ("speedup_cold", J.Num speedup_cold);
        ("speedup_warm", J.Num speedup_warm);
        ("verdicts_match", J.Bool verdicts_match);
      ]
  in
  let oc = open_out !cache_out in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "cache report written to %s\n" !cache_out

(* ------------------------------------------------------------------ *)
(* E13: the scheduler - leaf frontier across worker counts              *)
(* ------------------------------------------------------------------ *)

let leaf_out = ref "BENCH_leaf_sched.json"

let e13 () =
  section "E13 / the scheduler - leaf frontier across worker counts";
  (* a deliberately skewed partition: a handful of cells next to the
     collision cylinder refine to max_depth while their neighbours prove
     at depth 0, so the frontier fans the hard cells' subtrees out
     across all workers *)
  let sys = S.system ~networks:(Lazy.force networks) () in
  let cells =
    if !tiny then
      List.map snd (S.initial_cells ~arcs:12 ~headings:4 ~arc_indices:[ 6 ] ())
    else
      List.map snd
        (S.initial_cells ~arcs:12 ~headings:6 ~arc_indices:[ 2; 3 ] ())
  in
  let max_depth = if !tiny then 1 else 2 in
  let config ~workers =
    {
      Verify.default_config with
      reach = { Reach.default_config with keep_sets = false };
      strategy = Verify.All_dims [ D.ix; D.iy; D.ipsi ];
      max_depth;
      workers;
    }
  in
  let signature = report_signature in
  let m_steals = Nncs_obs.Metrics.counter "verify.steals" in
  let run label workers =
    let s0 = Nncs_obs.Metrics.value m_steals in
    let t0 = now () in
    let report = Verify.verify_partition ~config:(config ~workers) sys cells in
    let dt = now () -. t0 in
    let steals = Nncs_obs.Metrics.value m_steals - s0 in
    Printf.printf
      "%-12s %8.2f s   coverage %5.1f%%   steals %5d\n%!" label dt
      report.Verify.coverage steals;
    (signature report, report.Verify.coverage, dt, steals)
  in
  let sig_seq, coverage, t_seq, _ = run "sequential" 1 in
  let variant workers =
    let sig_w, _, t_w, steals = run (Printf.sprintf "workers=%d" workers) workers in
    (workers, t_w, steals, sig_w = sig_seq)
  in
  let variants = List.map variant [ 2; 4 ] in
  let verdicts_match = List.for_all (fun (_, _, _, ok) -> ok) variants in
  List.iter
    (fun (w, t_w, _, _) ->
      Printf.printf "workers=%d: %.2fx vs sequential (%.2f s -> %.2f s)\n" w
        (if t_w > 0.0 then t_seq /. t_w else 0.0)
        t_seq t_w)
    variants;
  Printf.printf "verdicts identical across worker counts: %b\n" verdicts_match;
  let module J = Nncs_obs.Json in
  (* wall-clock comparisons only mean something relative to the host's
     core count: with more domains than cores every stop-the-world minor
     GC waits for descheduled domains, so the 4-worker run loses on a
     2-core host.  Record the cores so readers can tell *)
  Printf.printf "host cores (recommended domains): %d\n"
    (Domain.recommended_domain_count ());
  let json =
    J.Obj
      ([
         ("tiny", J.Bool !tiny);
         ("host_cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
         ("cells", J.Num (float_of_int (List.length cells)));
         ("max_depth", J.Num (float_of_int max_depth));
         ("coverage_pct", J.Num coverage);
         ("t_sequential_s", J.Num t_seq);
         ("verdicts_match", J.Bool verdicts_match);
       ]
      @ List.concat_map
          (fun (w, t_w, steals, _) ->
            [
              (Printf.sprintf "t_workers_%d_s" w, J.Num t_w);
              ( Printf.sprintf "speedup_workers_%d" w,
                J.Num (if t_w > 0.0 then t_seq /. t_w else 0.0) );
              (Printf.sprintf "steals_%d" w, J.Num (float_of_int steals));
            ])
          variants)
  in
  let oc = open_out !leaf_out in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "scheduler report written to %s\n" !leaf_out

(* ------------------------------------------------------------------ *)
(* E14: verification service - memo and cache tiers vs full runs        *)
(* ------------------------------------------------------------------ *)

let serve_out = ref "BENCH_serve.json"

let e14 () =
  section "E14 / serve - resident verification service: cold vs warm vs memo";
  let module Server = Nncs_serve.Server in
  let module P = Nncs_serve.Protocol in
  let module J = Nncs_obs.Json in
  let nets = Lazy.force networks in
  let make_system ~domain ~nn_splits =
    S.system ~networks:nets ~domain ~nn_splits ()
  in
  let make_cells ~arcs ~headings ~arc_indices =
    let arc_indices = match arc_indices with [] -> None | l -> Some l in
    List.map snd (S.initial_cells ~arcs ~headings ?arc_indices ())
  in
  let cache =
    { Nncs_nnabs.Cache.capacity = 65536; quantum = 0.0; shards = 8 }
  in
  (* a fresh abstraction cache for this experiment, even when E12 ran in
     the same process and installed the shared slot already *)
  Nncs_nnabs.Cache.clear (Nncs_nnabs.Cache.shared cache);
  let server =
    Server.create
      {
        Server.default_config with
        Server.dispatchers = 1;
        cache = Some cache;
        memo_path = None;
      }
      ~make_system ~make_cells
  in
  (* one job per arc slice; input splitting multiplies the F# share of
     the work (cf. E12), the regime where the warm cache pays — the tiny
     networks need more splits before F# dominates the ODE cost enough
     for the warm/cold gap to be robust *)
  let arc_sets = if !tiny then [ [ 6 ] ] else [ [ 2 ]; [ 3 ]; [ 4 ] ] in
  let nn_splits = if !tiny then 6 else 2 in
  let jobs = List.length arc_sets in
  (* jobs are built as JSON and parsed through the wire codec, so the
     bench exercises exactly the request path a remote client hits *)
  let job id memo sel =
    let json =
      J.Obj
        ([
           ("t", J.Str "job");
           ("id", J.Str id);
           ( "partition",
             J.Obj
               [
                 ("arcs", J.Num 12.0);
                 ("headings", J.Num 4.0);
                 ( "arc_indices",
                   J.List (List.map (fun i -> J.Num (float_of_int i)) sel) );
               ] );
           ("nn_splits", J.Num (float_of_int nn_splits));
           ("memo", J.Bool memo);
         ]
        (* in tiny mode also cut the validated-integration share (M=4):
           the warm/cold gap measures the F# cache, not the ODE kernel *)
        @ if !tiny then [ ("m", J.Num 4.0) ] else [])
    in
    match P.request_of_json json with
    | Ok (P.Job job) -> job
    | Ok _ -> Stdlib.failwith "bench request is not a job"
    | Error reason -> Stdlib.failwith ("bench job failed to parse: " ^ reason)
  in
  let run_pass label memo =
    (* (fingerprint, served from memo?) per verdict, submission order *)
    let verdicts = ref [] in
    let emit = function
      | P.Verdict { fingerprint; source; _ } ->
          (* sequential submits never coalesce, but a shared-run verdict
             would equally be a cache hit *)
          let hit =
            match source with
            | P.Memo | P.Coalesced -> true
            | P.Run -> false
          in
          verdicts := (fingerprint, hit) :: !verdicts
      | P.Job_error { id; reason } ->
          Stdlib.failwith (Printf.sprintf "job %s failed: %s" id reason)
      | _ -> ()
    in
    let t0 = now () in
    List.iteri
      (fun i sel ->
        Server.submit server ~emit (job (Printf.sprintf "%s%d" label i) memo sel))
      arc_sets;
    let dt = now () -. t0 in
    Printf.printf "%-6s %8.3f s   (%d jobs, %.1f ms/query)\n%!" label dt jobs
      (1000.0 *. dt /. float_of_int jobs);
    (dt, List.rev !verdicts)
  in
  let t_cold, cold_vs = run_pass "cold" false in
  let t_warm, _ = run_pass "warm" false in
  let t_memo, memo_vs = run_pass "memo" true in
  let memo_all_hits =
    List.length memo_vs = jobs && List.for_all snd memo_vs
  in
  (* the served verdicts must equal a one-shot acasxu_verify-style run:
     same config, no cache, no server *)
  let verdicts_match =
    List.for_all2
      (fun sel (fp, _) ->
        let j = job "direct" false sel in
        let sys =
          make_system ~domain:j.P.domain ~nn_splits:j.P.nn_splits
        in
        let cells =
          match j.P.cells with
          | P.Explicit cells -> cells
          | P.Partition { arcs; headings; arc_indices } ->
              make_cells ~arcs ~headings ~arc_indices
        in
        let config =
          {
            j.P.config with
            Verify.reach =
              { j.P.config.Verify.reach with Reach.abs_cache = None };
          }
        in
        let direct = Verify.verify_partition ~config sys cells in
        match Server.lookup server fp with
        | Some served -> report_signature served = report_signature direct
        | None -> false)
      arc_sets cold_vs
  in
  let warm_lt_cold = t_warm < t_cold in
  let speedup dt = if dt > 0.0 then t_cold /. dt else 0.0 in
  let queries_per_s =
    if t_memo > 0.0 then float_of_int jobs /. t_memo else 0.0
  in
  Printf.printf
    "warm < cold: %b (%.2fx)   memo: %.2fx, %.0f queries/s, all hits %b\n"
    warm_lt_cold (speedup t_warm) (speedup t_memo) queries_per_s memo_all_hits;
  Printf.printf "verdicts identical to one-shot runs: %b\n" verdicts_match;
  let json =
    J.Obj
      [
        ("tiny", J.Bool !tiny);
        ("host_cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
        ("jobs", J.Num (float_of_int jobs));
        ("nn_splits", J.Num (float_of_int nn_splits));
        ("cache_capacity", J.Num (float_of_int cache.Nncs_nnabs.Cache.capacity));
        ("cache_quantum", J.Num cache.Nncs_nnabs.Cache.quantum);
        ("cache_shards", J.Num (float_of_int cache.Nncs_nnabs.Cache.shards));
        ("t_cold_s", J.Num t_cold);
        ("t_warm_s", J.Num t_warm);
        ("t_memo_s", J.Num t_memo);
        ("speedup_warm", J.Num (speedup t_warm));
        ("speedup_memo", J.Num (speedup t_memo));
        ("memo_queries_per_s", J.Num queries_per_s);
        ("warm_lt_cold", J.Bool warm_lt_cold);
        ("memo_all_hits", J.Bool memo_all_hits);
        ("verdicts_match", J.Bool verdicts_match);
      ]
  in
  let oc = open_out !serve_out in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "serve report written to %s\n" !serve_out

(* ------------------------------------------------------------------ *)
(* E15: serve robustness - cancellation latency, coalescing, shedding   *)
(* ------------------------------------------------------------------ *)

let robust_out = ref "BENCH_serve_robust.json"

let e15 () =
  section "E15 / serve robustness - cancellation, coalescing, overload";
  let module Server = Nncs_serve.Server in
  let module P = Nncs_serve.Protocol in
  let module J = Nncs_obs.Json in
  let nets = Lazy.force networks in
  let make_system ~domain ~nn_splits =
    S.system ~networks:nets ~domain ~nn_splits ()
  in
  let make_cells ~arcs ~headings ~arc_indices =
    let arc_indices = match arc_indices with [] -> None | l -> Some l in
    List.map snd (S.initial_cells ~arcs ~headings ?arc_indices ())
  in
  let sel = if !tiny then [ 6 ] else [ 2; 3 ] in
  let nn_splits = if !tiny then 6 else 2 in
  (* jobs through the wire codec, as in E14 (and with E14's tiny-mode
     integration cut), so the numbers describe the served path *)
  let job id memo =
    let json =
      J.Obj
        ([
           ("t", J.Str "job");
           ("id", J.Str id);
           ( "partition",
             J.Obj
               [
                 ("arcs", J.Num 12.0);
                 ("headings", J.Num 4.0);
                 ( "arc_indices",
                   J.List (List.map (fun i -> J.Num (float_of_int i)) sel) );
               ] );
           ("nn_splits", J.Num (float_of_int nn_splits));
           ("memo", J.Bool memo);
         ]
        @ if !tiny then [ ("m", J.Num 4.0) ] else [])
    in
    match P.request_of_json json with
    | Ok (P.Job job) -> job
    | Ok _ -> Stdlib.failwith "bench request is not a job"
    | Error reason -> Stdlib.failwith ("bench job failed to parse: " ^ reason)
  in
  (* uncached servers: warm-cache carry-over between passes would
     otherwise make raced duplicates look cheaper than they are *)
  let fresh_server ?max_queue ?(dispatchers = 1) () =
    Server.create
      {
        Server.default_config with
        Server.dispatchers;
        cache = None;
        max_queue;
      }
      ~make_system ~make_cells
  in
  (* -- cancellation latency: cancel at the first progress event and
     time how long the run takes to unwind, against the full run -- *)
  let full_run () =
    let server = fresh_server () in
    let t0 = now () in
    Server.submit server ~emit:(fun _ -> ()) (job "full" false);
    let dt = now () -. t0 in
    Server.close server;
    dt
  in
  let cancelled_run () =
    let server = fresh_server () in
    let ticket = ref None in
    let cancel_at = ref 0.0 in
    Server.submit server
      ~emit:(fun e ->
        match e with
        | P.Progress _ when !cancel_at = 0.0 -> (
            match !ticket with
            | Some tk ->
                cancel_at := now ();
                ignore (Server.cancel_ticket server tk ~reason:"bench")
            | None -> ())
        | _ -> ())
      ~on_start:(fun tk -> ticket := Some tk)
      (job "cancelled" false);
    let dt = if !cancel_at > 0.0 then now () -. !cancel_at else Float.nan in
    Server.close server;
    dt
  in
  let best f n = List.fold_left Float.min Float.infinity (List.init n (fun _ -> f ())) in
  let rounds = 3 in
  let t_full = best full_run rounds in
  let t_cancel = best cancelled_run rounds in
  Printf.printf
    "full run %.3f s, cancel unwinds in %.4f s (%.0fx faster)\n%!" t_full
    t_cancel
    (if t_cancel > 0.0 then t_full /. t_cancel else 0.0);
  (* -- coalesced vs raced duplicates: the same job submitted from
     [k] domains at once, with coalescing (memo on) and without -- *)
  let k = 4 in
  let concurrent label memo =
    let server = fresh_server () in
    let gate = Atomic.make false in
    let lock = Mutex.create () in
    let sources = ref [] in
    let emit = function
      | P.Verdict { source; _ } ->
          Mutex.lock lock;
          sources := source :: !sources;
          Mutex.unlock lock
      | P.Job_error { id; reason } ->
          Stdlib.failwith (Printf.sprintf "job %s failed: %s" id reason)
      | _ -> ()
    in
    let domains =
      List.init k (fun i ->
          Domain.spawn (fun () ->
              while not (Atomic.get gate) do
                Domain.cpu_relax ()
              done;
              Server.submit server ~emit
                (job (Printf.sprintf "%s%d" label i) memo)))
    in
    let t0 = now () in
    Atomic.set gate true;
    List.iter Domain.join domains;
    let dt = now () -. t0 in
    let coalesced =
      List.length (List.filter (fun s -> s = P.Coalesced) !sources)
    in
    Server.close server;
    (dt, coalesced)
  in
  let t_coal, n_coal = concurrent "c" true in
  let t_race, _ = concurrent "r" false in
  Printf.printf
    "%d duplicates: coalesced %.3f s (%d followed), raced %.3f s (%.2fx)\n%!" k
    t_coal n_coal t_race
    (if t_coal > 0.0 then t_race /. t_coal else 0.0);
  (* -- overload shedding: a one-dispatcher session with a queue of two
     offered a burst through the real session loop -- *)
  let offered = 16 in
  let shed_session () =
    let server = fresh_server ~max_queue:2 () in
    let in_path = Filename.temp_file "bench_serve_in" ".jsonl" in
    let out_path = Filename.temp_file "bench_serve_out" ".jsonl" in
    Fun.protect
      ~finally:(fun () ->
        Server.close server;
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ in_path; out_path ])
      (fun () ->
        let oc = open_out in_path in
        for i = 1 to offered do
          output_string oc
            (J.to_string
               (P.request_to_json (P.Job (job (Printf.sprintf "o%d" i) false))));
          output_char oc '\n'
        done;
        output_string oc "{\"t\":\"shutdown\"}\n";
        close_out oc;
        let ic = open_in in_path and oc = open_out out_path in
        let t0 = now () in
        ignore (Server.run server ic oc);
        let dt = now () -. t0 in
        close_in ic;
        close_out oc;
        let shed = ref 0 and served = ref 0 in
        let ic = In_channel.open_text out_path in
        (try
           while true do
             match P.event_of_json (J.of_string (input_line ic)) with
             | Ok (P.Verdict _) -> incr served
             | Ok (P.Job_error _) -> incr shed
             | _ -> ()
           done
         with End_of_file -> ());
        In_channel.close ic;
        (dt, !shed, !served))
  in
  let t_drain, shed, served = shed_session () in
  let shed_rate = float_of_int shed /. float_of_int offered in
  Printf.printf
    "overload: %d offered, %d shed (%.0f%%), %d served, drained in %.3f s\n%!"
    offered shed (100.0 *. shed_rate) served t_drain;
  let json =
    J.Obj
      [
        ("tiny", J.Bool !tiny);
        ("host_cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
        ("nn_splits", J.Num (float_of_int nn_splits));
        ("t_full_run_s", J.Num t_full);
        ("cancel_latency_s", J.Num t_cancel);
        ( "cancel_speedup",
          J.Num (if t_cancel > 0.0 then t_full /. t_cancel else 0.0) );
        ("duplicates", J.Num (float_of_int k));
        ("t_coalesced_s", J.Num t_coal);
        ("t_raced_s", J.Num t_race);
        ("coalesced_followers", J.Num (float_of_int n_coal));
        ( "coalesced_speedup",
          J.Num (if t_coal > 0.0 then t_race /. t_coal else 0.0) );
        ("overload_offered", J.Num (float_of_int offered));
        ("overload_shed", J.Num (float_of_int shed));
        ("overload_served", J.Num (float_of_int served));
        ("overload_shed_rate", J.Num shed_rate);
        ("t_overload_drain_s", J.Num t_drain);
      ]
  in
  let oc = open_out !robust_out in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "serve robustness report written to %s\n" !robust_out

(* ------------------------------------------------------------------ *)
(* E17: backreachability oracle - table build cost vs lookup latency    *)
(* ------------------------------------------------------------------ *)

let backreach_out = ref "BENCH_backreach.json"

let e17 () =
  section "E17 / backreach - quantized backward fixed point as an oracle";
  let module Backreach = Nncs_backreach.Backreach in
  let sys = S.system ~networks:(Lazy.force networks) () in
  let r = D.sensor_range_ft in
  let pi = Float.pi in
  (* same domain acasxu_verify --backreach uses: the sensor circle on
     x/y, every partition heading cell on psi, point speeds *)
  let domain =
    B.of_bounds
      [|
        (-.r, r);
        (-.r, r);
        (-.pi, 4.0 *. pi);
        (D.v_own_fps, D.v_own_fps);
        (D.v_int_fps, D.v_int_fps);
      |]
  in
  let grid = if !tiny then [| 6; 6; 4; 1; 1 |] else [| 16; 16; 8; 1; 1 |] in
  let bcfg =
    {
      (Backreach.default_config ~domain ~grid) with
      Backreach.reach = { Reach.default_config with keep_sets = false };
      workers = min 4 (Domain.recommended_domain_count ());
    }
  in
  let t0 = now () in
  let table = Backreach.build bcfg sys in
  let build_s = now () -. t0 in
  Printf.printf
    "table: %d/%d states unsafe, %d sweep(s), %d failed, %d escaped, %.2f s \
     build\n\
     %!"
    (Backreach.num_unsafe table)
    (Backreach.num_states table)
    (Backreach.sweeps table) (Backreach.failed_states table)
    (Backreach.escaped_states table)
    build_s;
  (* lookup throughput: cell-sized probes sweeping the whole quantized
     domain, every command in turn — deterministic, so reruns measure
     the same query stream *)
  let lookups = if !tiny then 20_000 else 100_000 in
  let ncmds = 5 in
  let cw d =
    let iv = B.get domain d in
    (iv.Nncs_interval.Interval.hi -. iv.Nncs_interval.Interval.lo)
    /. float_of_int grid.(d)
  in
  let probe i =
    let cx = i mod grid.(0)
    and cy = i / grid.(0) mod grid.(1)
    and cp = i / (grid.(0) * grid.(1)) mod grid.(2) in
    let lo d c = (B.get domain d).Nncs_interval.Interval.lo +. (float_of_int c *. cw d) in
    B.of_bounds
      [|
        (lo 0 cx, lo 0 cx +. cw 0);
        (lo 1 cy, lo 1 cy +. cw 1);
        (lo 2 cp, lo 2 cp +. cw 2);
        (D.v_own_fps, D.v_own_fps);
        (D.v_int_fps, D.v_int_fps);
      |]
  in
  let unsafe_hits = ref 0 in
  let t0 = now () in
  for i = 0 to lookups - 1 do
    match Backreach.query table ~box:(probe i) ~cmd:(i mod ncmds) with
    | Backreach.Unsafe _ -> incr unsafe_hits
    | Backreach.Safe | Backreach.Out_of_domain -> ()
  done;
  let lookup_s = now () -. t0 in
  let lookups_per_s =
    if lookup_s > 0.0 then float_of_int lookups /. lookup_s else 0.0
  in
  (* the run a lookup substitutes for: one forward verification of a
     single partition cell, the cheapest answer the run path can give *)
  let cells =
    List.map snd (S.initial_cells ~arcs:12 ~headings:4 ~arc_indices:[ 6 ] ())
  in
  let config =
    {
      Verify.default_config with
      reach = { Reach.default_config with keep_sets = false };
      strategy = Verify.All_dims [ D.ix; D.iy; D.ipsi ];
      max_depth = 0;
    }
  in
  let t0 = now () in
  let report = Verify.verify_partition ~config sys cells in
  let full_run_s = now () -. t0 in
  let per_cell_s = full_run_s /. float_of_int report.Verify.total_cells in
  let speedup = if lookups_per_s > 0.0 then per_cell_s *. lookups_per_s else 0.0 in
  Printf.printf
    "%d lookups in %.3f s (%.0f/s, %d unsafe); forward run %.2f s for %d \
     cells (%.3f s/cell) -> one lookup is %.0fx cheaper than one cell\n"
    lookups lookup_s lookups_per_s !unsafe_hits full_run_s
    report.Verify.total_cells per_cell_s speedup;
  Printf.printf "host cores (recommended domains): %d\n"
    (Domain.recommended_domain_count ());
  let module J = Nncs_obs.Json in
  let json =
    J.Obj
      [
        ("tiny", J.Bool !tiny);
        ("host_cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
        ("grid", J.List (Array.to_list (Array.map (fun g -> J.Num (float_of_int g)) grid)));
        ("states", J.Num (float_of_int (Backreach.num_states table)));
        ("unsafe", J.Num (float_of_int (Backreach.num_unsafe table)));
        ("sweeps", J.Num (float_of_int (Backreach.sweeps table)));
        ("failed_states", J.Num (float_of_int (Backreach.failed_states table)));
        ("escaped_states", J.Num (float_of_int (Backreach.escaped_states table)));
        ("build_s", J.Num build_s);
        ("lookups", J.Num (float_of_int lookups));
        ("lookup_s", J.Num lookup_s);
        ("lookups_per_s", J.Num lookups_per_s);
        ("unsafe_hits", J.Num (float_of_int !unsafe_hits));
        ("full_run_s", J.Num full_run_s);
        ("full_run_cells", J.Num (float_of_int report.Verify.total_cells));
        ("per_cell_s", J.Num per_cell_s);
        ("speedup_vs_cell", J.Num speedup);
      ]
  in
  let oc = open_out !backreach_out in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "backreach report written to %s\n" !backreach_out

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the kernels behind the experiments      *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  section "timing - Bechamel micro-benchmarks";
  let open Bechamel in
  let nets = Lazy.force networks in
  let state =
    B.of_bounds
      [| (-100.0, 0.0); (7900.0, 8000.0); (3.0, 3.05); (700.0, 700.0); (600.0, 600.0) |]
  in
  let u = Command.value_box D.commands 0 in
  let input_box =
    B.of_bounds [| (0.4, 0.45); (0.1, 0.15); (0.2, 0.25); (0.7, 0.7); (0.6, 0.6) |]
  in
  let sys = system () in
  let cell =
    (* [open Bechamel] shadows the S alias: qualify fully *)
    snd
      (List.nth
         (Nncs_acasxu.Scenario.initial_cells ~arcs:18 ~headings:6
            ~arc_indices:[ 14 ] ())
         2)
  in
  let tests =
    [
      Test.Elt.unsafe_make ~name:"e1:validated-sim M=10"
        (Staged.stage (fun () ->
             ignore
               (Nncs_ode.Simulate.simulate Dyn.plant ~t0:0.0 ~period:1.0
                  ~steps:10 ~order:6 ~state ~inputs:u)));
      Test.Elt.unsafe_make ~name:"e6:F# interval"
        (Staged.stage (fun () -> ignore (Tr.propagate Tr.Interval nets.(0) input_box)));
      Test.Elt.unsafe_make ~name:"e6:F# symbolic"
        (Staged.stage (fun () -> ignore (Tr.propagate Tr.Symbolic nets.(0) input_box)));
      Test.Elt.unsafe_make ~name:"e6:F# affine"
        (Staged.stage (fun () -> ignore (Tr.propagate Tr.Affine nets.(0) input_box)));
      Test.Elt.unsafe_make ~name:"e2:reach one cell"
        (Staged.stage (fun () ->
             ignore
               (Reach.analyze
                  ~config:{ Reach.default_config with keep_sets = false }
                  sys
                  (Symset.of_list [ cell ]))));
      Test.Elt.unsafe_make ~name:"e8:concrete simulation"
        (Staged.stage (fun () ->
             ignore
               (Concrete.simulate sys
                  ~init_state:
                    (Nncs_acasxu.Scenario.initial_state ~bearing:1.0
                       ~heading:2.4)
                  ~init_cmd:0)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~kde:None () in
  Printf.printf "%-28s %16s\n" "kernel" "time per run";
  List.iter
    (fun elt ->
      let b = Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt in
      let ols =
        Analyze.one
          (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock b
      in
      match Analyze.OLS.estimates ols with
      | Some (est :: _) ->
          let s =
            if est > 1e9 then Printf.sprintf "%10.3f  s" (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%10.3f ms" (est /. 1e6)
            else if est > 1e3 then Printf.sprintf "%10.3f us" (est /. 1e3)
            else Printf.sprintf "%10.1f ns" est
          in
          Printf.printf "%-28s %16s\n%!" (Test.Elt.name elt) s
      | Some [] | None ->
          Printf.printf "%-28s %16s\n%!" (Test.Elt.name elt) "(no estimate)")
    tests

(* --summary=FILE: machine-readable per-experiment wall times plus the
   Nncs_obs metrics accumulated over the whole run — the baseline
   artifact future perf PRs diff against.  Every bench artifact records
   [host_cores]: wall-clock numbers from multi-domain experiments are
   meaningless without the core count they ran on. *)
let write_summary path timings =
  let module J = Nncs_obs.Json in
  let json =
    J.Obj
      [
        ("host_cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
        ( "experiments",
          J.Obj (List.map (fun (name, dt) -> (name, J.Num dt)) timings) );
        ("metrics", Nncs_obs.Metrics.snapshot_json ());
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "summary written to %s\n" path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let prefixed prefix a =
    if String.length a > String.length prefix
       && String.sub a 0 (String.length prefix) = prefix
    then Some (String.sub a (String.length prefix) (String.length a - String.length prefix))
    else None
  in
  let summary = List.find_map (prefixed "--summary=") args in
  Option.iter (fun p -> cache_out := p) (List.find_map (prefixed "--cache-out=") args);
  Option.iter (fun p -> leaf_out := p) (List.find_map (prefixed "--leaf-out=") args);
  Option.iter (fun p -> serve_out := p) (List.find_map (prefixed "--serve-out=") args);
  Option.iter (fun p -> robust_out := p) (List.find_map (prefixed "--robust-out=") args);
  Option.iter (fun p -> backreach_out := p) (List.find_map (prefixed "--backreach-out=") args);
  if List.mem "--tiny" args then tiny := true;
  let args = List.filter (fun a -> not (String.length a >= 2 && String.sub a 0 2 = "--")) args in
  let all =
    [ ("e1", e1); ("e1b", e1b); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
      ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
      ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15);
      ("e17", e17) ]
  in
  let want name = args = [] || List.mem name args in
  if List.mem "timing" args then bechamel_suite ()
  else begin
    let timings =
      List.filter_map
        (fun (name, f) ->
          if want name then begin
            let t0 = now () in
            f ();
            Some (name, now () -. t0)
          end
          else None)
        all
    in
    Option.iter (fun path -> write_summary path timings) summary;
    Printf.printf "\nbench: done\n"
  end
