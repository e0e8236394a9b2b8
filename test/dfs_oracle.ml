(* The sequential refinement loop as it ran before the leaf frontier
   became the only scheduler, kept verbatim as the oracle of the
   scheduler's equivalence tests (test_scheduler): one cell at a time, a
   depth-first recursion that bisects every unproved leaf, behind a
   per-cell firewall.  Only the trace spans and the counters are
   dropped; the degradation ladder, the refinement rule and the leaf
   order are the original ones, so [Verify.verify_partition] must
   return the same leaves, verdicts and coverage as [verify_partition]
   here at every worker count. *)

module Verify = Nncs.Verify
module Reach = Nncs.Reach
module Symset = Nncs.Symset
module Symstate = Nncs.Symstate
module System = Nncs.System
module Controller = Nncs.Controller
module Budget = Nncs_resilience.Budget
module Failure_ = Nncs_resilience.Failure
module Firewall = Nncs_resilience.Firewall
module Fault = Nncs_resilience.Fault

let now () = Unix.gettimeofday ()

let dims_to_split (config : Verify.config) sys cell =
  match config.Verify.strategy with
  | Verify.All_dims dims -> dims
  | Verify.Most_influential { candidates; take } ->
      let take = max 1 (min take (List.length candidates)) in
      List.filteri (fun i _ -> i < take)
        (Verify.influence_order sys cell candidates)

let rung_base = "base"
let rung_halved = "halved_step"
let rung_interval = "interval_domain"

let attempt reach_config budget sys st =
  Reach.run ~config:reach_config ~budget sys (Symset.of_list [ st ])

let run_ladder (config : Verify.config) budget sys st =
  let base = config.Verify.reach in
  match attempt base budget sys st with
  | Ok r -> (Ok r, [ rung_base ])
  | Error ((Failure_.Budget_exceeded _ | Failure_.Cancelled _) as f) ->
      (Error f, [ rung_base ])
  | Error _ -> (
      let halved =
        { base with Reach.integration_steps = 2 * base.Reach.integration_steps }
      in
      match attempt halved budget sys st with
      | Ok r -> (Ok r, [ rung_base; rung_halved ])
      | Error ((Failure_.Budget_exceeded _ | Failure_.Cancelled _) as f) ->
          (Error f, [ rung_base; rung_halved ])
      | Error f2 ->
          let ctrl = sys.System.controller in
          if ctrl.Controller.domain = Nncs_nnabs.Transformer.Interval then
            (Error f2, [ rung_base; rung_halved ])
          else begin
            let sys' =
              {
                sys with
                System.controller =
                  { ctrl with Controller.domain = Nncs_nnabs.Transformer.Interval };
              }
            in
            match attempt halved budget sys' st with
            | Ok r -> (Ok r, [ rung_base; rung_halved; rung_interval ])
            | Error f3 -> (Error f3, [ rung_base; rung_halved; rung_interval ])
          end)

let run_leaf (config : Verify.config) budget sys st =
  let t0 = now () in
  let verdict, rungs =
    if config.Verify.degrade then run_ladder config budget sys st
    else
      match attempt config.Verify.reach budget sys st with
      | Ok r -> (Ok r, [ rung_base ])
      | Error f -> (Error f, [ rung_base ])
  in
  (verdict, rungs, now () -. t0)

let strategy_arity = function
  | Verify.All_dims dims -> List.length dims
  | Verify.Most_influential { take; candidates } ->
      max 1 (min take (List.length candidates))

let unknown_leaf ?(rungs = []) ?(elapsed = 0.0) ~depth st f =
  {
    Verify.state = st;
    depth;
    proved = false;
    result = Verify.Failed f;
    rungs;
    elapsed;
  }

let verify_cell ?cancel ?(config = Verify.default_config) ?(index = 0) sys cell
    =
  if config.Verify.max_depth < 0 then
    invalid_arg "Verify.verify_cell: negative depth";
  (match config.Verify.strategy with
  | Verify.All_dims [] | Verify.Most_influential { candidates = []; _ }
    when config.Verify.max_depth > 0 ->
      invalid_arg "Verify.verify_cell: no split dimensions"
  | Verify.All_dims _ | Verify.Most_influential _ -> ());
  let factor = float_of_int (1 lsl strategy_arity config.Verify.strategy) in
  let budget = Budget.start ?cancel config.Verify.limits in
  let rec go depth st =
    let verdict, rungs, dt = run_leaf config budget sys st in
    let proved =
      match verdict with Ok r -> Reach.is_proved_safe r | Error _ -> false
    in
    let out_of_budget =
      match verdict with
      | Error (Failure_.Budget_exceeded _ | Failure_.Cancelled _) -> true
      | _ -> false
    in
    (* refinement also drives "could not conclude": a failed leaf is
       split like an unproved one (smaller boxes often restore the
       enclosure) — except when the budget is gone or the job was
       cancelled, where splitting would only multiply the failures *)
    if proved || depth >= config.Verify.max_depth || out_of_budget then begin
      match verdict with
      | Ok r ->
          [
            {
              Verify.state = st;
              depth;
              proved;
              result = Verify.Completed r.Reach.outcome;
              rungs;
              elapsed = dt;
            };
          ]
      | Error f -> [ unknown_leaf ~rungs ~elapsed:dt ~depth st f ]
    end
    else
      List.concat_map (go (depth + 1))
        (Symstate.split st (dims_to_split config sys st))
  in
  let t0 = now () in
  let leaves =
    (* the per-cell firewall: any exception the per-leaf ladder did not
       absorb (strategy evaluation, splitting, injected faults, plain
       bugs) degrades this one cell to Unknown *)
    match
      Firewall.protect ~classify:Reach.classify (fun () ->
          Fault.trigger ~key:(string_of_int index) "verify.cell";
          go 0 cell)
    with
    | Ok leaves -> leaves
    | Error f -> [ unknown_leaf ~depth:0 cell f ]
  in
  let proved_fraction =
    List.fold_left
      (fun acc (leaf : Verify.leaf) ->
        if leaf.Verify.proved then
          acc +. (1.0 /. (factor ** float_of_int leaf.Verify.depth))
        else acc)
      0.0 leaves
  in
  { Verify.index; leaves; proved_fraction; elapsed = now () -. t0 }

(* the sequential partition run: every cell in input order *)
let verify_partition ?cancel ?config sys cells =
  let t0 = now () in
  let reports =
    List.mapi (fun index cell -> verify_cell ?cancel ?config ~index sys cell) cells
  in
  {
    Verify.cells = reports;
    coverage = Verify.coverage_of_cells reports;
    elapsed = now () -. t0;
    proved_cells =
      List.length
        (List.filter
           (fun (c : Verify.cell_report) -> c.Verify.proved_fraction >= 1.0 -. 1e-12)
           reports);
    unknown_cells = List.length (List.filter Verify.cell_has_failure reports);
    total_cells = List.length cells;
  }
