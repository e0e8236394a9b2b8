(* Tests of the benchmark's own machinery: seeded inputs, the percentile
   rule, self time, and the correctness checks. *)

open Perfbench
module V = Nncs.Verify
module B = Nncs_interval.Box
module P = Nncs_serve.Protocol
module Backreach = Nncs_backreach.Backreach

let take n s = List.of_seq (Seq.take n s)
let job_key (j : Gen.job) = (j.cls, j.cell, j.shift, j.max_depth)

(* ----- seeded inputs ----- *)

let test_same_seed_same_inputs () =
  Alcotest.(check (list int)) "seq" (take 300 (Gen.seq_cells ~seed:7)) (take 300 (Gen.seq_cells ~seed:7));
  Alcotest.(check (list int)) "par" (take 200 (Gen.par_cells ~seed:7)) (take 200 (Gen.par_cells ~seed:7));
  Alcotest.(check bool) "serve" true
    (List.map job_key (take 300 (Gen.serve_jobs ~seed:7)) = List.map job_key (take 300 (Gen.serve_jobs ~seed:7)));
  Alcotest.(check bool) "lookups" true (take 500 (Gen.lookups ~seed:7) = take 500 (Gen.lookups ~seed:7));
  (* a stream traversed twice restarts from its seed *)
  let s = Gen.serve_jobs ~seed:7 in
  Alcotest.(check bool) "restartable" true (List.map job_key (take 50 s) = List.map job_key (take 50 s))

let test_other_seed_other_inputs () =
  Alcotest.(check bool) "seq" false (take 116 (Gen.seq_cells ~seed:1) = take 116 (Gen.seq_cells ~seed:2));
  Alcotest.(check bool) "par" false (take 100 (Gen.par_cells ~seed:1) = take 100 (Gen.par_cells ~seed:2));
  Alcotest.(check bool) "serve" false
    (List.map job_key (take 100 (Gen.serve_jobs ~seed:1)) = List.map job_key (take 100 (Gen.serve_jobs ~seed:2)));
  Alcotest.(check bool) "lookups" false (take 100 (Gen.lookups ~seed:1) = take 100 (Gen.lookups ~seed:2))

let rank_of =
  let r = Array.make (Array.length Gen.w36_by_cost) 0 in
  Array.iteri (fun rank cell -> r.(cell) <- rank) Gen.w36_by_cost;
  fun cell -> r.(cell)

let test_seq_rounds_keep_their_mix () =
  let cells = take (3 * 116) (Gen.seq_cells ~seed:3) in
  List.iteri
    (fun k round ->
      let cheap = List.length (List.filter (fun c -> rank_of c < Gen.cheap_ranks) round) in
      Alcotest.(check int) (Printf.sprintf "round %d cheap" k) 100 cheap;
      let plateau c = rank_of c >= Gen.seq_costly_lo && rank_of c < Gen.seq_costly_hi in
      Alcotest.(check int) (Printf.sprintf "round %d costly on the plateau" k) 16
        (List.length (List.filter plateau round)))
    [ List.filteri (fun i _ -> i < 116) cells;
      List.filteri (fun i _ -> i >= 116 && i < 232) cells;
      List.filteri (fun i _ -> i >= 232) cells ];
  (* any prefix keeps roughly the round's share of costly cells *)
  let first = List.filteri (fun i _ -> i < 58) cells in
  let costly = List.length (List.filter (fun c -> rank_of c >= Gen.cheap_ranks) first) in
  Alcotest.(check bool) "half round has half the costly cells" true (costly >= 7 && costly <= 9)

let test_serve_tiers () =
  let jobs = take 500 (Gen.serve_jobs ~seed:11) in
  let count cls = List.length (List.filter (fun (j : Gen.job) -> j.cls = cls) jobs) in
  Alcotest.(check int) "cold" 350 (count Gen.Cold);
  let on cells (j : Gen.job) = Array.mem j.cell cells in
  Alcotest.(check bool) "every job's cell is in the cold universe" true
    (List.for_all (fun j -> on Gen.serve_light j || on Gen.serve_heavy j) jobs);
  Alcotest.(check int) "heavy cold runs" 100
    (List.length (List.filter (fun (j : Gen.job) -> j.cls = Gen.Cold && on Gen.serve_heavy j) jobs));
  Alcotest.(check int) "warm" 100 (count Gen.Warm);
  Alcotest.(check int) "repeat" 50 (count Gen.Repeat);
  let shifts = List.filter_map (fun (j : Gen.job) -> if j.cls = Gen.Cold then Some j.shift else None) jobs in
  Alcotest.(check int) "every cold box is fresh" (List.length shifts) (List.length (List.sort_uniq compare shifts));
  ignore
    (List.fold_left
       (fun (colds, distinct) (j : Gen.job) ->
         match j.cls with
         | Gen.Cold -> ((j.cell, j.shift) :: colds, (j.cell, j.shift, j.max_depth) :: distinct)
         | Gen.Warm ->
             Alcotest.(check bool) "warm follows its cold run" true (List.mem (j.cell, j.shift) colds);
             Alcotest.(check int) "warm depth" 0 j.max_depth;
             (colds, (j.cell, j.shift, j.max_depth) :: distinct)
         | Gen.Repeat ->
             let recent = List.filteri (fun i _ -> i < Gen.repeat_window) distinct in
             Alcotest.(check bool) "repeat of a recent job" true (List.mem (j.cell, j.shift, j.max_depth) recent);
             (colds, distinct))
       ([], []) jobs)

(* ----- percentiles ----- *)

let test_percentile_rule () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p90 of 1..100" 90.0 (Pct.percentile (xs 100) 90.0);
  Alcotest.(check (float 0.0)) "median of 1..9" 5.0 (Pct.median (xs 9));
  Alcotest.(check bool) "p90 with 100 samples" true (Pct.reportable ~n:100 90.0);
  Alcotest.(check bool) "p90 with 99 samples" false (Pct.reportable ~n:99 90.0);
  Alcotest.(check bool) "p99 with 1000 samples" true (Pct.reportable ~n:1000 99.0);
  Alcotest.(check bool) "p99 with 999 samples" false (Pct.reportable ~n:999 99.0);
  Alcotest.(check bool) "p50 with 20 samples" true (Pct.reportable ~n:20 50.0);
  Alcotest.(check bool) "p50 with 19 samples" false (Pct.reportable ~n:19 50.0);
  Alcotest.(check bool) "no samples" false (Pct.reportable ~n:0 50.0)

(* ----- self time ----- *)

let span ?(dom = 0) name ts dur = { Selftime.name; dom; ts; dur }

let test_self_time () =
  let spans =
    [
      span "a" 0.0 10.0;
      span "b" 1.0 3.0;
      span "c" 2.0 1.0;
      span "d" 5.0 4.0;
      span "d" 6.0 0.5;
      (* another domain's span inside a's interval is not a's child *)
      span ~dom:1 "e" 6.0 2.0;
      (* a child sharing its parent's start is visited after it *)
      span "f" 20.0 1.0;
      span "g" 20.0 0.25;
    ]
  in
  let selfs = List.map (fun ((s : Selftime.span), self) -> ((s.name, s.ts), self)) (Selftime.self_times spans) in
  let self name ts = List.assoc (name, ts) selfs in
  Alcotest.(check (float 1e-12)) "a" 3.0 (self "a" 0.0);
  Alcotest.(check (float 1e-12)) "b" 2.0 (self "b" 1.0);
  Alcotest.(check (float 1e-12)) "c" 1.0 (self "c" 2.0);
  Alcotest.(check (float 1e-12)) "d outer" 3.5 (self "d" 5.0);
  Alcotest.(check (float 1e-12)) "d inner" 0.5 (self "d" 6.0);
  Alcotest.(check (float 1e-12)) "e" 2.0 (self "e" 6.0);
  Alcotest.(check (float 1e-12)) "f" 0.75 (self "f" 20.0);
  let phases = Selftime.phases spans in
  let d = Selftime.phase phases "d" in
  Alcotest.(check int) "d calls" 2 d.calls;
  Alcotest.(check (float 1e-12)) "d self" 4.0 d.self_s;
  Alcotest.(check (float 1e-12)) "d total" 4.5 d.total_s;
  Alcotest.(check (option string)) "largest" (Some "d") (Selftime.largest phases)

(* ----- correctness checks ----- *)

let box lo hi = B.of_bounds [| (lo, hi); (lo, hi); (0.0, 1.0); (700.0, 700.0); (600.0, 600.0) |]

let leaf ?(depth = 0) proved =
  {
    V.state = Nncs.Symstate.make (box 0.0 1.0) 0;
    depth;
    proved;
    result = V.Completed (if proved then Nncs.Reach.Proved_safe else Nncs.Reach.Reached_error { step = 3 });
    rungs = [ "base" ];
    elapsed = 0.01;
  }

let report () =
  let c1 = { V.index = 0; leaves = [ leaf true ]; proved_fraction = 1.0; elapsed = 0.1 } in
  let c2 =
    {
      V.index = 1;
      leaves = List.init 8 (fun i -> leaf ~depth:1 (i < 3));
      proved_fraction = 0.375;
      elapsed = 0.2;
    }
  in
  { V.cells = [ c1; c2 ]; coverage = 68.75; elapsed = 0.3; proved_cells = 1; unknown_cells = 0; total_cells = 2 }

let test_coverage_check () =
  let r = report () in
  Alcotest.(check bool) "honest report" true (Check.coverage_ok r);
  Alcotest.(check bool) "inflated coverage" false (Check.coverage_ok { r with coverage = 70.0 });
  let c2 = List.nth r.cells 1 in
  Alcotest.(check bool) "inflated cell" false
    (Check.coverage_ok { r with cells = [ List.hd r.cells; { c2 with proved_fraction = 0.5 } ] });
  (* the last leaf was unproved *)
  let flipped = { c2 with leaves = List.rev (leaf ~depth:1 true :: List.tl (List.rev c2.leaves)) } in
  Alcotest.(check bool) "leaf changed under the report" true
    (not (Check.coverage_ok { r with cells = [ List.hd r.cells; flipped ] }))

let verdict ?(fingerprint = "fp") ?(coverage = 68.75) ?(proved_cells = 1) () =
  P.Verdict
    {
      id = "j0";
      fingerprint;
      source = P.Run;
      coverage;
      proved_cells;
      unknown_cells = 0;
      total_cells = 2;
      elapsed_s = 0.3;
    }

let test_served_check () =
  let direct = report () in
  Alcotest.(check bool) "same verdict" true (Check.served_ok ~fingerprint:"fp" direct (verdict ()));
  Alcotest.(check bool) "coverage" false (Check.served_ok ~fingerprint:"fp" direct (verdict ~coverage:75.0 ()));
  Alcotest.(check bool) "proved cells" false (Check.served_ok ~fingerprint:"fp" direct (verdict ~proved_cells:2 ()));
  Alcotest.(check bool) "fingerprint" false
    (Check.served_ok ~fingerprint:"fp" direct (verdict ~fingerprint:"other" ()));
  Alcotest.(check bool) "not a verdict" false
    (Check.served_ok ~fingerprint:"fp" direct (P.Job_error { id = "j0"; reason = "x" }))

let test_lookup_check () =
  Alcotest.(check bool) "unsafe" true (Check.lookup_ok (Backreach.Unsafe { k = 2 }) (P.Lookup_unsafe { k = 2 }));
  Alcotest.(check bool) "safe" true (Check.lookup_ok Backreach.Safe P.Lookup_safe);
  Alcotest.(check bool) "k" false (Check.lookup_ok (Backreach.Unsafe { k = 2 }) (P.Lookup_unsafe { k = 3 }));
  Alcotest.(check bool) "status" false (Check.lookup_ok Backreach.Safe (P.Lookup_unsafe { k = 1 }));
  Alcotest.(check bool) "domain" false (Check.lookup_ok Backreach.Out_of_domain P.Lookup_safe);
  Alcotest.(check bool) "unavailable" false (Check.lookup_ok Backreach.Safe P.Lookup_unavailable)

let test_concrete_check () =
  let rng = Nncs_linalg.Rng.create 5 in
  let networks =
    Array.init 5 (fun _ -> Nncs_nn.Network.create_mlp ~rng ~layer_sizes:[ 5; 8; 5 ])
  in
  let sys = Nncs_acasxu.Scenario.system ~networks () in
  let at lo hi = { (leaf true) with V.state = Nncs.Symstate.make (box lo hi) 0 } in
  let check leaves = Check.concrete_violations sys ~rng:(Nncs_linalg.Rng.create 1) ~max_leaves:4 leaves in
  (* starting beyond sensor range: already in T, never in E *)
  Alcotest.(check int) "sound leaf" 0 (check [ at 9000.0 9100.0 ]);
  (* a "proved" leaf inside the collision circle is caught *)
  Alcotest.(check bool) "leaf inside E" true (check [ at (-10.0) 10.0 ] > 0);
  (* unproved leaves are not sampled *)
  Alcotest.(check int) "unproved leaf" 0 (check [ { (at (-10.0) 10.0) with V.proved = false } ])

let test_digest () =
  let r = report () in
  Alcotest.(check string) "stable" (Check.digest r.cells) (Check.digest (report ()).cells);
  let c2 = List.nth r.cells 1 in
  let changed = { c2 with leaves = List.rev (leaf ~depth:1 true :: List.tl (List.rev c2.leaves)); proved_fraction = 0.5 } in
  Alcotest.(check bool) "verdict change shows" false
    (Check.digest r.cells = Check.digest [ List.hd r.cells; changed ])

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "same seed same inputs" `Quick test_same_seed_same_inputs;
          Alcotest.test_case "other seed other inputs" `Quick test_other_seed_other_inputs;
          Alcotest.test_case "seq rounds keep their mix" `Quick test_seq_rounds_keep_their_mix;
          Alcotest.test_case "serve tiers" `Quick test_serve_tiers;
        ] );
      ("percentiles", [ Alcotest.test_case "ten samples beyond" `Quick test_percentile_rule ]);
      ("self time", [ Alcotest.test_case "nested spans" `Quick test_self_time ]);
      ( "checks",
        [
          Alcotest.test_case "coverage" `Quick test_coverage_check;
          Alcotest.test_case "served verdict" `Quick test_served_check;
          Alcotest.test_case "lookup" `Quick test_lookup_check;
          Alcotest.test_case "concrete" `Quick test_concrete_check;
          Alcotest.test_case "digest" `Quick test_digest;
        ] );
    ]
