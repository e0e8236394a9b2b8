(* Validated integration: enclosures must contain the true flow (known
   analytically for decay/oscillator, sampled by high-accuracy RK4 for
   nonlinear systems), and tighten as the order/number of steps grows. *)

module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module E = Nncs_ode.Expr
module Ode = Nncs_ode.Ode
module Onestep = Nncs_ode.Onestep
module Simulate = Nncs_ode.Simulate
module Apriori = Nncs_ode.Apriori

let check = Alcotest.(check bool)
let no_inputs = B.of_point [| 0.0 |]

(* s' = -s, solution s0 * exp(-t) *)
let decay = Ode.make ~dim:1 ~input_dim:1 [| E.(neg (state 0)) |]

(* harmonic oscillator: x' = y, y' = -x; solution rotates on a circle *)
let oscillator =
  Ode.make ~dim:2 ~input_dim:1 [| E.(state 1); E.(neg (state 0)) |]

(* controlled integrator: x' = u *)
let integrator = Ode.make ~dim:1 ~input_dim:1 [| E.(input 0) |]

(* Van der Pol: nonlinear, classic validated-integration stress test *)
let vanderpol =
  Ode.make ~dim:2 ~input_dim:1
    [|
      E.(state 1);
      E.((const 1.0 - sqr (state 0)) * state 1 - state 0);
    |]

let test_expr_eval () =
  let e = E.(sin (state 0) + (const 2.0 * input 0) - time) in
  let v = E.eval e ~time:1.0 ~state:[| 0.5 |] ~inputs:[| 3.0 |] in
  Alcotest.(check (float 1e-12)) "concrete eval" (Float.sin 0.5 +. 6.0 -. 1.0) v;
  let iv =
    E.eval_interval e ~time:(I.of_float 1.0)
      ~state:(B.of_bounds [| (0.4, 0.6) |])
      ~inputs:(B.of_point [| 3.0 |])
  in
  check "interval eval contains concrete" true (I.contains iv v)

let test_expr_validation () =
  Alcotest.check_raises "bad state index"
    (Invalid_argument "Ode.make: state index out of range") (fun () ->
      ignore (Ode.make ~dim:1 ~input_dim:1 [| E.state 3 |]))

let test_rk4_decay () =
  let s = Ode.rk4_flow decay ~time:0.0 ~state:[| 1.0 |] ~inputs:[| 0.0 |] ~duration:1.0 ~steps:100 in
  check "rk4 close to exp(-1)" true (Float.abs (s.(0) -. Float.exp (-1.0)) < 1e-8)

let test_apriori_contains_flow () =
  let state = B.of_bounds [| (0.9, 1.1) |] in
  let b = Apriori.enclosure decay ~t1:0.0 ~h:0.2 ~state ~inputs:no_inputs in
  (* true flow from any s0 in [0.9,1.1] stays within [0.9*e^-0.2, 1.1] *)
  List.iter
    (fun s0 ->
      List.iter
        (fun t ->
          let v = s0 *. Float.exp (-.t) in
          check "apriori contains sample" true (I.contains (B.get b 0) v))
        [ 0.0; 0.05; 0.1; 0.15; 0.2 ])
    [ 0.9; 1.0; 1.1 ]

let test_onestep_decay () =
  let state = B.of_bounds [| (1.0, 1.0) |] in
  let r = Onestep.step decay ~order:6 ~t1:0.0 ~h:0.1 ~state ~inputs:no_inputs in
  let exact = Float.exp (-0.1) in
  check "endpoint contains exact" true (I.contains (B.get r.endpoint 0) exact);
  check "endpoint tight" true (I.width (B.get r.endpoint 0) < 1e-9);
  check "range contains initial" true (I.contains (B.get r.range 0) 1.0);
  check "range contains endpoint" true (I.contains (B.get r.range 0) exact)

let test_onestep_oscillator () =
  let state = B.of_point [| 1.0; 0.0 |] in
  let r =
    Onestep.step oscillator ~order:8 ~t1:0.0 ~h:0.1 ~state ~inputs:no_inputs
  in
  check "x endpoint" true (I.contains (B.get r.endpoint 0) (Float.cos 0.1));
  check "y endpoint" true (I.contains (B.get r.endpoint 1) (-.Float.sin 0.1));
  check "tight" true (I.width (B.get r.endpoint 0) < 1e-10)

let test_simulate_oscillator_full_turn () =
  (* quarter turn in 10 steps: endpoint near (0, -1) *)
  let state = B.of_bounds [| (0.99, 1.01); (-0.01, 0.01) |] in
  let r =
    Simulate.simulate oscillator ~t0:0.0 ~period:(Float.pi /. 2.0) ~steps:20
      ~order:8 ~state ~inputs:no_inputs
  in
  (* each true trajectory: (cos t * x0 + sin t * y0, -sin t * x0 + cos t * y0) *)
  List.iter
    (fun (x0, y0) ->
      let t = Float.pi /. 2.0 in
      let xf = (Float.cos t *. x0) +. (Float.sin t *. y0) in
      let yf = (-.Float.sin t *. x0) +. (Float.cos t *. y0) in
      check "endpoint contains flow" true
        (I.contains (B.get r.endpoint 0) xf && I.contains (B.get r.endpoint 1) yf))
    [ (0.99, -0.01); (1.01, 0.01); (1.0, 0.0) ];
  (* wrapping stays moderate: initial width 0.02 should not balloon *)
  check "width controlled" true (I.width (B.get r.endpoint 0) < 0.1)

let test_simulate_integrator_command () =
  (* x' = u with u = 2: from [0,0.1] reach [0.2, 0.3] after 0.1s *)
  let state = B.of_bounds [| (0.0, 0.1) |] in
  let r =
    Simulate.simulate integrator ~t0:0.0 ~period:0.1 ~steps:4 ~order:3 ~state
      ~inputs:(B.of_point [| 2.0 |])
  in
  check "endpoint lo" true (Float.abs (I.lo (B.get r.endpoint 0) -. 0.2) < 1e-9);
  check "endpoint hi" true (Float.abs (I.hi (B.get r.endpoint 0) -. 0.3) < 1e-9);
  check "range spans whole motion" true
    (I.contains (B.get r.range 0) 0.0 && I.contains (B.get r.range 0) 0.3)

let test_more_steps_tighter () =
  let state = B.of_bounds [| (0.9, 1.1); (-0.1, 0.1) |] in
  let width_with steps =
    let r =
      Simulate.simulate vanderpol ~t0:0.0 ~period:0.5 ~steps ~order:6 ~state
        ~inputs:no_inputs
    in
    B.max_width r.range
  in
  let w1 = width_with 1 and w10 = width_with 10 in
  check "M=10 tighter than M=1 (Fig 7)" true (w10 < w1)

let test_vanderpol_contains_rk4 () =
  let state = B.of_bounds [| (1.2, 1.3); (0.0, 0.1) |] in
  let r =
    Simulate.simulate vanderpol ~t0:0.0 ~period:0.5 ~steps:10 ~order:6 ~state
      ~inputs:no_inputs
  in
  (* sample 9 initial conditions, integrate accurately, check containment *)
  List.iter
    (fun x0 ->
      List.iter
        (fun y0 ->
          let s =
            Ode.rk4_flow vanderpol ~time:0.0 ~state:[| x0; y0 |]
              ~inputs:[| 0.0 |] ~duration:0.5 ~steps:2000
          in
          check "endpoint contains rk4 sample" true (B.contains r.endpoint s))
        [ 0.0; 0.05; 0.1 ])
    [ 1.2; 1.25; 1.3 ]

(* qcheck: random linear 2x2 systems — endpoint encloses matrix-exponential
   flow sampled by fine RK4 *)

let arb_linear_case =
  QCheck.make
    ~print:(fun (a, b, c, d, x0, y0) ->
      Printf.sprintf "A=[[%g;%g];[%g;%g]] x0=(%g,%g)" a b c d x0 y0)
    QCheck.Gen.(
      let* a = float_range (-2.0) 2.0 in
      let* b = float_range (-2.0) 2.0 in
      let* c = float_range (-2.0) 2.0 in
      let* d = float_range (-2.0) 2.0 in
      let* x0 = float_range (-1.0) 1.0 in
      let* y0 = float_range (-1.0) 1.0 in
      return (a, b, c, d, x0, y0))

let prop_linear_sound =
  QCheck.Test.make ~count:100 ~name:"linear system endpoint sound"
    arb_linear_case (fun (a, b, c, d, x0, y0) ->
      let sys =
        Ode.make ~dim:2 ~input_dim:1
          E.
            [|
              scale a (state 0) + scale b (state 1);
              scale c (state 0) + scale d (state 1);
            |]
      in
      let state = B.of_point [| x0; y0 |] in
      let r =
        Simulate.simulate sys ~t0:0.0 ~period:0.2 ~steps:4 ~order:6 ~state
          ~inputs:no_inputs
      in
      let s =
        Ode.rk4_flow sys ~time:0.0 ~state:[| x0; y0 |] ~inputs:[| 0.0 |]
          ~duration:0.2 ~steps:1000
      in
      (* rk4 is not exact: allow its own tiny error when checking *)
      let slack = 1e-7 in
      let within i v =
        I.lo (B.get r.endpoint i) -. slack <= v
        && v <= I.hi (B.get r.endpoint i) +. slack
      in
      within 0 s.(0) && within 1 s.(1))

let main_tests =
  [
      ( "expr",
        [
          Alcotest.test_case "evaluation" `Quick test_expr_eval;
          Alcotest.test_case "validation" `Quick test_expr_validation;
        ] );
      ( "concrete",
        [ Alcotest.test_case "rk4 decay" `Quick test_rk4_decay ] );
      ( "validated",
        [
          Alcotest.test_case "apriori contains flow" `Quick
            test_apriori_contains_flow;
          Alcotest.test_case "onestep decay" `Quick test_onestep_decay;
          Alcotest.test_case "onestep oscillator" `Quick
            test_onestep_oscillator;
          Alcotest.test_case "simulate quarter turn" `Quick
            test_simulate_oscillator_full_turn;
          Alcotest.test_case "simulate with command" `Quick
            test_simulate_integrator_command;
          Alcotest.test_case "more steps tighter (Fig 7)" `Quick
            test_more_steps_tighter;
          Alcotest.test_case "van der pol contains rk4" `Quick
            test_vanderpol_contains_rk4;
        ] );
      ( "ode-properties",
        List.map QCheck_alcotest.to_alcotest [ prop_linear_sound ] );
    ]

(* ----- appended: symbolic differentiation, QR, interval matrices and
   the Loehner mean-value integrator ----- *)

module Mat = Nncs_linalg.Mat
module Qr = Nncs_linalg.Qr
module IM = Nncs_interval.Interval_matrix
module Lohner = Nncs_ode.Lohner
module Rng = Nncs_linalg.Rng

let arb_small_state =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "(%g, %g)" a b)
    QCheck.Gen.(
      let* a = float_range (-2.0) 2.0 in
      let* b = float_range (-2.0) 2.0 in
      return (a, b))

(* an expression exercising every constructor with a well-defined
   derivative on the sampled domain *)
let diff_test_expr =
  E.(
    sin (state 0)
    + (cos (state 1) * state 0)
    - exp (scale 0.3 (state 1))
    + sqrt (const 4.0 + sqr (state 0))
    + atan (state 1)
    + pow (state 0) 3
    + (state 0 / (const 3.0 + sqr (state 1))))

let prop_diff_matches_finite_difference =
  QCheck.Test.make ~count:300 ~name:"symbolic diff matches finite differences"
    arb_small_state (fun (a, b) ->
      let eval e s0 s1 =
        E.eval e ~time:0.0 ~state:[| s0; s1 |] ~inputs:[| 0.0 |]
      in
      let eps = 1e-6 in
      let ok dim =
        let d = E.diff diff_test_expr dim in
        let sym = eval d a b in
        let fd =
          if dim = 0 then (eval diff_test_expr (a +. eps) b -. eval diff_test_expr (a -. eps) b) /. (2.0 *. eps)
          else (eval diff_test_expr a (b +. eps) -. eval diff_test_expr a (b -. eps)) /. (2.0 *. eps)
        in
        Float.abs (sym -. fd) < 1e-4 *. (1.0 +. Float.abs sym)
      in
      ok 0 && ok 1)

let test_qr_orthogonal () =
  let rng = Rng.create 5 in
  for _ = 1 to 20 do
    let n = 2 + Rng.int rng 4 in
    let a = Mat.init n n (fun _ _ -> Rng.gaussian rng) in
    let q, r = Qr.decompose a in
    (* q * r = a *)
    let qr = Mat.mul q r in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        check "qr reconstructs" true (Float.abs (Mat.get qr i j -. Mat.get a i j) < 1e-9);
        (* r upper triangular *)
        if i > j then check "r triangular" true (Float.abs (Mat.get r i j) < 1e-9)
      done
    done;
    (* q orthogonal *)
    let qtq = Mat.mul (Mat.transpose q) q in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let expected = if i = j then 1.0 else 0.0 in
        check "q orthogonal" true (Float.abs (Mat.get qtq i j -. expected) < 1e-9)
      done
    done
  done

let test_interval_matrix_ops () =
  let a = IM.of_floats [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = IM.of_floats [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let c = IM.mul a b in
  check "product entry" true (I.contains (IM.get c 0 0) 2.0);
  check "product entry'" true (I.contains (IM.get c 1 1) 3.0);
  let v = IM.mul_vec a [| I.make 0.0 1.0; I.of_float 1.0 |] in
  (* row 1: [1,2]*... = [0,1]*1 + 2 = [2,3] *)
  check "mat-vec" true (I.lo v.(0) <= 2.0 +. 1e-12 && I.hi v.(0) >= 3.0 -. 1e-12);
  check "contains member" true (IM.contains a [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |])

let test_lohner_beats_direct_on_rotation () =
  let state = B.of_bounds [| (0.9, 1.1); (-0.1, 0.1) |] in
  let run scheme =
    Simulate.simulate ~scheme oscillator ~t0:0.0 ~period:(4.0 *. Float.pi)
      ~steps:100 ~order:8 ~state ~inputs:no_inputs
  in
  let direct = run Simulate.Direct and lohner = run Simulate.Lohner in
  (* after two full turns the set returns to itself: width 0.2 exactly *)
  check "lohner near optimal" true (B.max_width lohner.Simulate.endpoint < 0.21);
  check "direct wraps badly" true
    (B.max_width direct.Simulate.endpoint > 10.0 *. B.max_width lohner.Simulate.endpoint);
  (* soundness of the lohner endpoint: rotated corners inside *)
  let t = 4.0 *. Float.pi in
  List.iter
    (fun (x0, y0) ->
      let xf = (Float.cos t *. x0) +. (Float.sin t *. y0) in
      let yf = (-.Float.sin t *. x0) +. (Float.cos t *. y0) in
      check "lohner endpoint sound" true (B.contains lohner.Simulate.endpoint [| xf; yf |]))
    [ (0.9, -0.1); (0.9, 0.1); (1.1, -0.1); (1.1, 0.1); (1.0, 0.0) ]

let test_lohner_sound_nonlinear () =
  (* van der pol again, but through the lohner scheme *)
  let state = B.of_bounds [| (1.2, 1.3); (0.0, 0.1) |] in
  let r =
    Simulate.simulate ~scheme:Simulate.Lohner vanderpol ~t0:0.0 ~period:0.5
      ~steps:10 ~order:6 ~state ~inputs:no_inputs
  in
  List.iter
    (fun x0 ->
      List.iter
        (fun y0 ->
          let s =
            Ode.rk4_flow vanderpol ~time:0.0 ~state:[| x0; y0 |]
              ~inputs:[| 0.0 |] ~duration:0.5 ~steps:2000
          in
          check "lohner endpoint contains rk4 sample" true (B.contains r.Simulate.endpoint s))
        [ 0.0; 0.05; 0.1 ])
    [ 1.2; 1.25; 1.3 ]

let test_jacobian_enclosure_linear () =
  (* for z' = A z the flow jacobian is exp(A h), independent of z *)
  let sys = Ode.make ~dim:2 ~input_dim:1 E.[| state 1; neg (state 0) |] in
  let j =
    Lohner.jacobian_enclosure sys ~order:8 ~t1:0.0 ~h:0.3
      ~inputs:no_inputs
      (B.of_bounds [| (-1.0, 1.0); (-1.0, 1.0) |])
  in
  (* exp of the rotation generator: [[cos h, sin h], [-sin h, cos h]] *)
  let h = 0.3 in
  check "J contains rotation matrix" true
    (IM.contains j
       [| [| Float.cos h; Float.sin h |]; [| -.Float.sin h; Float.cos h |] |]);
  check "J tight" true (IM.width j < 1e-6)

let additional_tests =
  [
    ( "lohner",
      [
        Alcotest.test_case "qr orthogonal" `Quick test_qr_orthogonal;
        Alcotest.test_case "interval matrices" `Quick test_interval_matrix_ops;
        Alcotest.test_case "beats direct on rotation" `Quick
          test_lohner_beats_direct_on_rotation;
        Alcotest.test_case "sound on van der pol" `Quick test_lohner_sound_nonlinear;
        Alcotest.test_case "jacobian enclosure" `Quick test_jacobian_enclosure_linear;
        QCheck_alcotest.to_alcotest prop_diff_matches_finite_difference;
      ] );
  ]

(* ----- the compiled Taylor tape against the whole-series oracle ----- *)

module Tape = Nncs_ode.Tape

(* Random right-hand sides over every Expr constructor, built with the
   raw constructors so that Pow 0 / Pow 1, Sqr of constants and -0.0
   reach the tape unfolded.  [Sin a] and [Cos a] of one argument occur
   together so the shared sin/cos node is exercised. *)
let rec gen_expr dim depth =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (2, map (fun c -> E.Const c) (float_range (-2.0) 2.0));
        (1, oneofl [ E.Const 0.0; E.Const (-0.0); E.Const 1.0 ]);
        (1, return E.Time);
        (4, map (fun i -> E.State i) (int_bound (dim - 1)));
        (1, return (E.Input 0));
      ]
  in
  if depth = 0 then leaf
  else
    let sub = gen_expr dim (depth - 1) in
    frequency
      [
        (3, leaf);
        (1, map (fun a -> E.Neg a) sub);
        (2, map2 (fun a b -> E.Add (a, b)) sub sub);
        (1, map2 (fun a b -> E.Sub (a, b)) sub sub);
        (2, map2 (fun a b -> E.Mul (a, b)) sub sub);
        (1, map2 (fun a b -> E.Div (a, b)) sub sub);
        (1, map (fun a -> E.Sin a) sub);
        (1, map (fun a -> E.Cos a) sub);
        (1, map (fun a -> E.Exp a) sub);
        (1, map (fun a -> E.Sqrt a) sub);
        (1, map (fun a -> E.Sqr a) sub);
        (1, map (fun a -> E.Atan a) sub);
        (1, map2 (fun a n -> E.Pow (a, n)) sub (int_bound 5));
        (1, map2 (fun a b -> E.Add (E.Mul (E.Sin a, b), E.Cos a)) sub sub);
      ]

type tape_case = {
  rhs : E.t array;
  order : int;
  time : I.t;
  state : B.t;
  inputs : B.t;
}

let gen_interval =
  QCheck.Gen.(
    map2
      (fun c r -> I.make (c -. r) (c +. r))
      (float_range (-3.0) 3.0)
      (oneofl [ 0.0; 1e-3; 0.1; 1.0; 3.0 ]))

let gen_tape_case =
  QCheck.Gen.(
    let* dim = int_range 1 3 in
    let* rhs = array_repeat dim (gen_expr dim 3) in
    let* order = int_range 1 8 in
    let* t0 = float_range 0.0 5.0 in
    let* time = oneofl [ I.of_float t0; I.make t0 (t0 +. 0.1) ] in
    let* state = array_repeat dim gen_interval in
    let* u = gen_interval in
    return
      { rhs; order; time; state = B.of_intervals state; inputs = B.of_intervals [| u |] })

let print_tape_case c =
  Format.asprintf "order %d time %a@.%a@.state %s" c.order I.pp c.time
    (Format.pp_print_list ~pp_sep:Format.pp_print_newline E.pp)
    (Array.to_list c.rhs)
    (String.concat " " (List.map I.to_string (Array.to_list (B.to_array c.state))))

let arb_tape_case = QCheck.make ~print:print_tape_case gen_tape_case

type 'a outcome = Value of 'a | Raised of string

let outcome f =
  match f () with v -> Value v | exception e -> Raised (Printexc.exn_slot_name e)

(* bitwise interval equality *)
let same_iv a b =
  Int64.equal (Int64.bits_of_float (I.lo a)) (Int64.bits_of_float (I.lo b))
  && Int64.equal (Int64.bits_of_float (I.hi a)) (Int64.bits_of_float (I.hi b))

let same_prefix n a b =
  let ok = ref true in
  for k = 0 to n - 1 do
    ok := !ok && same_iv a.(k) b.(k)
  done;
  !ok

let system_of c = Ode.make ~dim:(Array.length c.rhs) ~input_dim:1 c.rhs

(* the oracle's Jacobian-entry series, as the Loehner integrator built
   them: each Expr.diff entry evaluated over the full solution series *)
let oracle_jacobian c =
  let z =
    Series_oracle.solution_coeffs ~rhs:c.rhs ~order:c.order ~time:c.time
      ~state:c.state ~inputs:c.inputs
  in
  let tser = Series_oracle.time_var c.order c.time in
  let dim = Array.length c.rhs in
  ( z,
    Array.init dim (fun i ->
        Array.init dim (fun j ->
            Series_oracle.eval_expr (E.diff c.rhs.(i) j) ~time:tser ~state:z
              ~inputs:c.inputs)) )

let tape_jacobian c =
  Tape.solution_jacobian (system_of c).Ode.tape ~order:c.order ~time:c.time
    ~state:c.state ~inputs:c.inputs

(* solution coefficients 0..K and Jacobian coefficients 0..K-1 agree
   bit for bit, or both sides raise the same exception *)
let same_outcome c =
  let sol_ok =
    match
      ( outcome (fun () ->
            Series_oracle.solution_coeffs ~rhs:c.rhs ~order:c.order ~time:c.time
              ~state:c.state ~inputs:c.inputs),
        outcome (fun () ->
            Tape.solution (system_of c).Ode.tape ~order:c.order ~time:c.time
              ~state:c.state ~inputs:c.inputs) )
    with
    | Value a, Value b -> Array.for_all2 (same_prefix (c.order + 1)) a b
    | Raised a, Raised b -> String.equal a b
    | _ -> false
  in
  let jac_ok =
    match (outcome (fun () -> oracle_jacobian c), outcome (fun () -> tape_jacobian c)) with
    | Value (za, ja), Value (zb, jb) ->
        Array.for_all2 (same_prefix (c.order + 1)) za zb
        && Array.for_all2 (Array.for_all2 (same_prefix c.order)) ja jb
    | Raised a, Raised b -> String.equal a b
    | _ -> false
  in
  sol_ok && jac_ok

let prop_tape_bitwise =
  QCheck.Test.make ~count:400 ~name:"tape bit-identical to the whole-series oracle"
    arb_tape_case same_outcome

(* The property above only means something if the sample reaches both
   outcomes: the generator must produce raising cases (a divisor or a
   sqrt argument containing 0, a negative sqrt argument) as well as
   ordinary ones. *)
let test_tape_exceptions_covered () =
  let rand = Random.State.make [| 7 |] in
  let seen = Hashtbl.create 4 in
  for _ = 1 to 400 do
    let c = gen_tape_case rand in
    let key =
      match outcome (fun () -> tape_jacobian c) with
      | Value _ -> "value"
      | Raised name -> name
    in
    Hashtbl.replace seen key ();
    check ("agrees: " ^ print_tape_case c) true (same_outcome c)
  done;
  List.iter
    (fun k -> check ("sample reaches " ^ k) true (Hashtbl.mem seen k))
    [ "value"; "Nncs_interval.Interval.Division_by_zero_interval"; "Invalid_argument" ]

(* one tape run from two domains at once gives the sequential bits *)
let test_tape_two_domains () =
  let rand = Random.State.make [| 11 |] in
  let cases = List.init 60 (fun _ -> gen_tape_case rand) in
  let run () = List.map (fun c -> outcome (fun () -> tape_jacobian c)) cases in
  let same a b =
    match (a, b) with
    | Value (za, ja), Value (zb, jb) ->
        Array.for_all2 (Array.for_all2 same_iv) za zb
        && Array.for_all2 (Array.for_all2 (Array.for_all2 same_iv)) ja jb
    | Raised a, Raised b -> String.equal a b
    | _ -> false
  in
  let sequential = run () in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  check "domain 1" true (List.for_all2 same sequential r1);
  check "domain 2" true (List.for_all2 same sequential r2)

(* hash-consing: sin/cos of one argument share one node, equal subterms
   and constants with equal bits are one node, 0.0 and -0.0 are two *)
let test_tape_sharing () =
  let x = E.State 0 in
  let sys =
    Ode.make ~dim:1 ~input_dim:1
      [| E.Add (E.Mul (E.Sin x, E.Const 0.0), E.Mul (E.Cos x, E.Const (-0.0))) |]
  in
  (* State 0, sin/cos pair (2), 0.0, -0.0, two Mul, one Add *)
  Alcotest.(check int) "rhs nodes" 8 (Tape.rhs_nodes sys.Ode.tape);
  let sys =
    Ode.make ~dim:2 ~input_dim:1
      [| E.Mul (E.Sin x, E.Const 2.0); E.Mul (E.Sin x, E.Const 2.0) |]
  in
  (* State 0, State 1, sin/cos pair, 2.0, one Mul *)
  Alcotest.(check int) "shared rhs" 6 (Tape.rhs_nodes sys.Ode.tape)

let tape_tests =
  [
    ( "tape",
      [
        QCheck_alcotest.to_alcotest prop_tape_bitwise;
        Alcotest.test_case "exceptions covered" `Quick test_tape_exceptions_covered;
        Alcotest.test_case "two domains" `Quick test_tape_two_domains;
        Alcotest.test_case "hash-consing" `Quick test_tape_sharing;
      ] );
  ]

(* ----- the tape in the plant's regime -----

   The ACAS Xu plant integrates states of 10^3-10^4 ft with boxes up to
   ~100 wide, under commands that are often exactly 0, and two of its
   five right-hand sides are [Const 0.0].  Many of its Taylor
   coefficients are then [0, 0] and, once nudged, [-2^-1074, 2^-1074]:
   the operands the tape's assist-free helpers answer without the FPU.
   These cases come on top of the ones above, in that regime. *)

let gen_plant_interval =
  QCheck.Gen.(
    let* c = float_range 1e3 1e4 in
    let* sign = bool in
    let* r = oneofl [ 0.0; 1e-3; 0.5; 10.0; 50.0 ] in
    let c = if sign then c else -.c in
    return (I.make (c -. r) (c +. r)))

(* the plant's shapes: a rotating intruder, an own-ship turn, a constant *)
let gen_plant_expr dim =
  let open QCheck.Gen in
  let st = map (fun i -> E.State i) (int_bound (dim - 1)) in
  frequency
    [
      (3, return (E.Const 0.0));
      ( 2,
        map3
          (fun a b c -> E.Add (E.Neg (E.Mul (a, E.Sin b)), E.Mul (E.Input 0, c)))
          st st st );
      ( 2,
        map3
          (fun a b c -> E.Sub (E.Sub (E.Mul (a, E.Cos b), c), E.Mul (E.Input 0, a)))
          st st st );
      (1, return (E.Neg (E.Input 0)));
      (2, gen_expr dim 2);
    ]

let gen_plant_case =
  QCheck.Gen.(
    let* dim = int_range 2 5 in
    let* rhs = array_repeat dim (gen_plant_expr dim) in
    let* order = int_range 1 8 in
    let* t0 = float_range 0.0 5.0 in
    let* time = oneofl [ I.of_float t0; I.make t0 (t0 +. 0.1) ] in
    let* state =
      array_repeat dim (frequency [ (3, gen_plant_interval); (1, gen_interval) ])
    in
    let* u =
      frequency
        [ (3, return I.zero); (1, oneofl [ I.of_float 0.0262; I.of_float (-0.0262) ]); (1, gen_interval) ]
    in
    return
      { rhs; order; time; state = B.of_intervals state; inputs = B.of_intervals [| u |] })

let arb_plant_case = QCheck.make ~print:print_tape_case gen_plant_case

let prop_tape_plant_bitwise =
  QCheck.Test.make ~count:300 ~name:"bit-identical to the oracle"
    arb_plant_case same_outcome

(* Every rule of the helpers must be reached by the cases above, or the
   bitwise property could not see a fault in it.  The oracle copy on
   Rule_probe replays, from the tape's final coefficients 0..K-1, the
   interval operations the tape formed: each node's coefficients, the
   solution update z_(j+1) = f_j / (j+1), the Jacobian entries, and a
   Horner sum as Onestep forms it. *)
let probe_case c =
  match tape_jacobian c with
  | exception _ -> ()
  | z, _ ->
      let k = c.order in
      let low = Array.map (fun s -> Array.sub s 0 k) z in
      let time = Series_probe.time_var (k - 1) c.time in
      let dim = Array.length c.rhs in
      Array.iter
        (fun e ->
          let f = Series_probe.eval_expr e ~time ~state:low ~inputs:c.inputs in
          Array.iteri
            (fun j fj -> ignore (Rule_probe.div fj (I.of_float (float_of_int (j + 1)))))
            f)
        c.rhs;
      for i = 0 to dim - 1 do
        for j = 0 to dim - 1 do
          ignore (Series_probe.eval_expr (E.diff c.rhs.(i) j) ~time ~state:low ~inputs:c.inputs)
        done
      done;
      Array.iter
        (fun s ->
          let d = I.make 0.0 0.1 in
          let acc = ref s.(k) in
          for m = k - 1 downto 0 do
            acc := Rule_probe.add s.(m) (Rule_probe.mul d !acc)
          done)
        z

let test_tape_rules_reached () =
  let rand = Random.State.make [| 20 |] in
  Rule_probe.reset ();
  for _ = 1 to 300 do
    probe_case (gen_plant_case rand)
  done;
  let reached = Rule_probe.reached () in
  List.iter
    (fun rule -> check ("cases reach " ^ rule) true (List.mem rule reached))
    [
      "1 nudge: arithmetic successor";
      "1 nudge: zero";
      "1 nudge: bit step";
      "1 nudge: inf or NaN";
      "2 sum: absorbed";
      "3 sum: dust";
      "4 product: zero factor";
      "4 product: two subnormals";
      "4 product: dust times normal";
      "5 scale: dust";
    ]

(* Onestep's Horner sums on the planes equal the boxed Tape.horner *)
let prop_expand_is_horner =
  QCheck.Test.make ~count:300 ~name:"expand bit-identical to horner"
    (QCheck.pair arb_plant_case (QCheck.make QCheck.Gen.(oneofl [ 0.0; 0.01; 0.1; 0.5 ])))
    (fun (c, h) ->
      let tape = (system_of c).Ode.tape in
      let run order = Tape.coeffs tape ~order ~time:c.time ~state:c.state ~inputs:c.inputs in
      let sol order = Tape.solution tape ~order ~time:c.time ~state:c.state ~inputs:c.inputs in
      match (run (c.order - 1), run c.order) with
      | exception _ -> true
      | low, remainder ->
          let zs = sol (c.order - 1) and zr = sol c.order in
          List.for_all
            (fun d ->
              let got = Tape.expand low ~remainder d in
              Array.for_all Fun.id
                (Array.mapi
                   (fun i g ->
                     let coeffs =
                       Array.init (c.order + 1) (fun k ->
                           if k < c.order then zs.(i).(k) else zr.(i).(k))
                     in
                     same_iv g (Tape.horner coeffs d))
                   got))
            [ I.of_float h; I.make 0.0 h ])

(* Loehner's step splits its time like Onestep's: under each
   ode.simulate span of a Lohner run, ode.apriori, ode.taylor and
   ode.horner spans one level down *)
let test_lohner_spans () =
  let module Trace = Nncs_obs.Trace in
  Trace.enable ();
  ignore
    (Simulate.simulate ~scheme:Simulate.Lohner oscillator ~t0:0.0 ~period:0.5 ~steps:3
       ~order:4
       ~state:(B.of_intervals [| I.make 0.9 1.1; I.make (-0.1) 0.1 |])
       ~inputs:no_inputs);
  Trace.disable ();
  let events = Trace.events () in
  Trace.clear ();
  let named n = List.filter (fun e -> e.Trace.name = n) events in
  let sim = named "ode.simulate" in
  Alcotest.(check int) "one simulate span" 1 (List.length sim);
  let sim = List.hd sim in
  List.iter
    (fun n ->
      let spans = named n in
      Alcotest.(check int) (n ^ " once per step") 3 (List.length spans);
      List.iter
        (fun e ->
          check (n ^ " under ode.simulate") true
            (e.Trace.depth = sim.Trace.depth + 1
            && e.Trace.ts >= sim.Trace.ts
            && e.Trace.ts +. e.Trace.dur <= sim.Trace.ts +. sim.Trace.dur))
        spans)
    [ "ode.apriori"; "ode.taylor"; "ode.horner" ]

let plant_tape_tests =
  [
    ( "tape plant",
      [
        QCheck_alcotest.to_alcotest prop_tape_plant_bitwise;
        Alcotest.test_case "rules reached" `Quick test_tape_rules_reached;
        QCheck_alcotest.to_alcotest prop_expand_is_horner;
        Alcotest.test_case "lohner step spans" `Quick test_lohner_spans;
      ] );
  ]

let () = Alcotest.run "ode" (main_tests @ additional_tests @ tape_tests @ plant_tape_tests)
