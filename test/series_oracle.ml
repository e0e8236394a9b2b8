(* The whole-series Taylor evaluator the plant's integrators ran on
   before the compiled tape (Nncs_ode.Tape), kept verbatim as the oracle
   of the tape's bitwise differential test.  For each j = 0..K-1,
   [solution_coeffs] re-evaluates the whole right-hand side at full
   order K; the tape promises the same coefficients, bit for bit. *)

module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module Expr = Nncs_ode.Expr

type t = I.t array

let order s = Array.length s - 1

let const k c =
  Array.init (k + 1) (fun i -> if i = 0 then c else I.zero)

let time_var k t0 =
  Array.init (k + 1) (fun i ->
      if i = 0 then t0 else if i = 1 then I.one else I.zero)

let check_same a b name =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Series.%s: order mismatch" name)

let add a b =
  check_same a b "add";
  Array.map2 I.add a b

let sub a b =
  check_same a b "sub";
  Array.map2 I.sub a b

let neg a = Array.map I.neg a
let scale c a = Array.map (I.mul_float c) a

let mul a b =
  check_same a b "mul";
  let k = order a in
  Array.init (k + 1) (fun n ->
      let acc = ref I.zero in
      for j = 0 to n do
        acc := I.add !acc (I.mul a.(j) b.(n - j))
      done;
      !acc)

let sqr a = mul a a

let div a b =
  check_same a b "div";
  let k = order a in
  let q = Array.make (k + 1) I.zero in
  for n = 0 to k do
    let acc = ref a.(n) in
    for j = 0 to n - 1 do
      acc := I.sub !acc (I.mul q.(j) b.(n - j))
    done;
    q.(n) <- I.div !acc b.(0)
  done;
  q

let sqrt a =
  let k = order a in
  let r = Array.make (k + 1) I.zero in
  r.(0) <- I.sqrt a.(0);
  let two_r0 = I.mul_float 2.0 r.(0) in
  for n = 1 to k do
    let acc = ref a.(n) in
    for j = 1 to n - 1 do
      acc := I.sub !acc (I.mul r.(j) r.(n - j))
    done;
    r.(n) <- I.div !acc two_r0
  done;
  r

let exp a =
  let k = order a in
  let e = Array.make (k + 1) I.zero in
  e.(0) <- I.exp a.(0);
  for n = 1 to k do
    let acc = ref I.zero in
    for j = 1 to n do
      acc := I.add !acc (I.mul (I.mul_float (float_of_int j) a.(j)) e.(n - j))
    done;
    (* divide by the exact integer, not by a nearest-rounded 1/n scalar *)
    e.(n) <- I.div !acc (I.of_float (float_of_int n))
  done;
  e

let sin_cos a =
  let k = order a in
  let s = Array.make (k + 1) I.zero and c = Array.make (k + 1) I.zero in
  s.(0) <- I.sin a.(0);
  c.(0) <- I.cos a.(0);
  for n = 1 to k do
    let sacc = ref I.zero and cacc = ref I.zero in
    for j = 1 to n do
      let ja = I.mul_float (float_of_int j) a.(j) in
      sacc := I.add !sacc (I.mul ja c.(n - j));
      cacc := I.add !cacc (I.mul ja s.(n - j))
    done;
    let n_iv = I.of_float (float_of_int n) in
    s.(n) <- I.div !sacc n_iv;
    c.(n) <- I.neg (I.div !cacc n_iv)
  done;
  (s, c)

let atan a =
  let k = order a in
  (* g = 1 + a^2 ; t' * g = a' *)
  let g = add (const k I.one) (sqr a) in
  let t = Array.make (k + 1) I.zero in
  t.(0) <- I.atan a.(0);
  for n = 1 to k do
    let acc = ref (I.mul_float (float_of_int n) a.(n)) in
    for j = 1 to n - 1 do
      acc := I.sub !acc (I.mul (I.mul_float (float_of_int j) t.(j)) g.(n - j))
    done;
    t.(n) <- I.div !acc (I.mul_float (float_of_int n) g.(0))
  done;
  t

let pow a n =
  if n < 0 then invalid_arg "Series.pow: negative exponent";
  let k = order a in
  let rec go acc base n =
    if n = 0 then acc
    else
      let acc = if n land 1 = 1 then mul acc base else acc in
      go acc (mul base base) (n asr 1)
  in
  if n = 0 then const k I.one else go (const k I.one) a n

let rec eval_expr e ~time ~state ~inputs =
  let k = order time in
  match e with
  | Expr.Const c -> const k (I.of_float c)
  | Expr.Time -> time
  | Expr.State i -> state.(i)
  | Expr.Input i -> const k (B.get inputs i)
  | Expr.Neg a -> neg (eval_expr a ~time ~state ~inputs)
  | Expr.Add (a, b) ->
      add (eval_expr a ~time ~state ~inputs) (eval_expr b ~time ~state ~inputs)
  | Expr.Sub (a, b) ->
      sub (eval_expr a ~time ~state ~inputs) (eval_expr b ~time ~state ~inputs)
  | Expr.Mul (a, b) ->
      mul (eval_expr a ~time ~state ~inputs) (eval_expr b ~time ~state ~inputs)
  | Expr.Div (a, b) ->
      div (eval_expr a ~time ~state ~inputs) (eval_expr b ~time ~state ~inputs)
  | Expr.Sin a -> fst (sin_cos (eval_expr a ~time ~state ~inputs))
  | Expr.Cos a -> snd (sin_cos (eval_expr a ~time ~state ~inputs))
  | Expr.Exp a -> exp (eval_expr a ~time ~state ~inputs)
  | Expr.Sqrt a -> sqrt (eval_expr a ~time ~state ~inputs)
  | Expr.Sqr a -> sqr (eval_expr a ~time ~state ~inputs)
  | Expr.Atan a -> atan (eval_expr a ~time ~state ~inputs)
  | Expr.Pow (a, n) -> pow (eval_expr a ~time ~state ~inputs) n

let solution_coeffs ~rhs ~order:k ~time ~state ~inputs =
  let dim = Array.length rhs in
  if k < 1 then invalid_arg "Series.solution_coeffs: order must be >= 1";
  let z = Array.init dim (fun i -> const k (B.get state i)) in
  let tseries = time_var k time in
  (* z^(j+1) = f(z)^(j) / (j+1): the degree-j coefficient of f only
     depends on the coefficients 0..j of z, all valid at iteration j. *)
  for j = 0 to k - 1 do
    let fs = Array.map (fun e -> eval_expr e ~time:tseries ~state:z ~inputs) rhs in
    for i = 0 to dim - 1 do
      z.(i).(j + 1) <- I.div fs.(i).(j) (I.of_float (float_of_int (j + 1)))
    done
  done;
  z
