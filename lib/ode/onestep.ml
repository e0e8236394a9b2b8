module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module R = Nncs_interval.Rounding
module Span = Nncs_obs.Span

type result = { range : B.t; endpoint : B.t }

let step sys ~order ~t1 ~h ~state ~inputs =
  if order < 1 then invalid_arg "Onestep.step: order must be >= 1";
  let prior =
    Span.with_ "ode.apriori" (fun () ->
        Apriori.enclosure sys ~t1 ~h ~state ~inputs)
  in
  (* Coefficients 0..K-1 from the initial box at t = t1; coefficient K
     (Lagrange remainder) from the a-priori box over the step. *)
  let zs, zr =
    Span.with_ "ode.taylor" (fun () ->
        let tape = sys.Ode.tape in
        let zs =
          Tape.coeffs tape ~order:(order - 1) ~time:(I.of_float t1) ~state
            ~inputs
        in
        ( zs,
          Tape.coeffs tape ~order ~time:(I.make t1 (R.add_up t1 h))
            ~state:prior ~inputs ))
  in
  Span.with_ "ode.horner" (fun () ->
      let expand d = B.of_intervals (Tape.expand zs ~remainder:zr d) in
      let endpoint = expand (I.of_float h) in
      let range_raw = expand (I.make 0.0 h) in
      (* The a-priori box is itself an enclosure over the step; meeting
         the two keeps whichever is tighter per dimension. *)
      let range =
        match B.meet range_raw prior with Some m -> m | None -> range_raw
      in
      { range; endpoint })
