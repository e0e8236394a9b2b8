module I = Nncs_interval.Interval
module B = Nncs_interval.Box

(* Operands are node indices; every operand precedes its user. *)
type op =
  | Const of float
  | Time
  | State of int
  | Input of int
  | Neg of int
  | Add of int * int
  | Sub of int * int
  | Mul of int * int
  | Div of int * int
  | Sin_cos of int  (* this node holds the sines, the next one the cosines *)
  | Cos_of_pair  (* filled by the [Sin_cos] node just before it *)
  | Exp of int
  | Sqrt of int
  | Atan of int * int  (* argument, and the node of 1 + argument^2 *)

type t = {
  dim : int;
  ops : op array;
  rhs : int array;
  jacobian : int array array;
  rhs_nodes : int;
}

let rhs_nodes t = t.rhs_nodes

(* Hash-consing keys.  A constant is keyed by its bits: 0.0 and -0.0
   must stay distinct nodes, since their enclosures differ in sign. *)
type key = K_const of int64 | K_op of op | K_sin_cos of int

(* Nodes are created in the order the whole-series evaluator first
   visits the subterms: native code evaluates a function's arguments
   right to left, so the right operand of a binary node comes first.
   Iteration 0 then meets a failing coefficient-0 check in the same
   order, and raises the same exception. *)
let compile ~dim rhs ~jacobian =
  if Array.length rhs <> dim || Array.length jacobian <> dim
     || Array.exists (fun row -> Array.length row <> dim) jacobian
  then invalid_arg "Tape.compile: expected dim expressions and a dim x dim Jacobian";
  let ops = ref [] and count = ref 0 in
  let table : (key, int) Hashtbl.t = Hashtbl.create 64 in
  let push op =
    ops := op :: !ops;
    incr count;
    !count - 1
  in
  let node key op =
    match Hashtbl.find_opt table key with
    | Some i -> i
    | None ->
        let i = push op in
        Hashtbl.add table key i;
        i
  in
  let op o = node (K_op o) o in
  let const c = node (K_const (Int64.bits_of_float c)) (Const c) in
  let sin_cos a =
    match Hashtbl.find_opt table (K_sin_cos a) with
    | Some i -> i
    | None ->
        let i = push (Sin_cos a) in
        ignore (push Cos_of_pair);
        Hashtbl.add table (K_sin_cos a) i;
        i
  in
  (* State i is node i, so the solution series are nodes 0..dim-1 *)
  for i = 0 to dim - 1 do
    ignore (op (State i))
  done;
  let rec go (e : Expr.t) =
    match e with
    | Const c -> const c
    | Time -> op Time
    | State i -> op (State i)
    | Input i -> op (Input i)
    | Neg a -> op (Neg (go a))
    | Add (a, b) ->
        let a, b = operands a b in
        op (Add (a, b))
    | Sub (a, b) ->
        let a, b = operands a b in
        op (Sub (a, b))
    | Mul (a, b) ->
        let a, b = operands a b in
        op (Mul (a, b))
    | Div (a, b) ->
        let a, b = operands a b in
        op (Div (a, b))
    | Sin a -> sin_cos (go a)
    | Cos a -> sin_cos (go a) + 1
    | Exp a -> op (Exp (go a))
    | Sqrt a -> op (Sqrt (go a))
    | Sqr a ->
        let a = go a in
        op (Mul (a, a))
    | Atan a ->
        (* atan's recurrence divides by g = 1 + a^2, built as the series
           sum [1, 0, 0, ...] + a * a *)
        let a = go a in
        let sq = op (Mul (a, a)) in
        let g = op (Add (const 1.0, sq)) in
        op (Atan (a, g))
    | Pow (_, n) when n < 0 -> invalid_arg "Tape.compile: negative exponent"
    | Pow (a, n) ->
        (* binary powering from the series [1, 0, 0, ...], as the
           evaluator multiplies it out; the last squaring it discards *)
        let a = go a in
        let rec pow acc base n =
          if n = 0 then acc
          else
            let acc = if n land 1 = 1 then op (Mul (acc, base)) else acc in
            if n asr 1 = 0 then acc else pow acc (op (Mul (base, base))) (n asr 1)
        in
        pow (const 1.0) a n
  and operands a b =
    let b = go b in
    (go a, b)
  in
  let rhs = Array.map go rhs in
  let rhs_nodes = !count in
  let jacobian = Array.map (Array.map go) jacobian in
  { dim; ops = Array.of_list (List.rev !ops); rhs; jacobian; rhs_nodes }

(* Coefficient [n] of node [i], from coefficients [0..n] of its operands
   and [0..n-1] of itself.  Each case is, term by term and in the same
   order, the loop of the whole-series jet operator (the test oracle
   test/series_oracle.ml keeps them); see the float-op-order contract in
   tape.mli. *)
let coeff ops (w : I.t array array) ~order ~time ~inputs i n =
  let x = w.(i) in
  match ops.(i) with
  | State _ | Cos_of_pair -> ()
  | Const c -> if n = 0 then x.(0) <- I.of_float c
  | Time -> if n = 0 then x.(0) <- time else if n = 1 then x.(1) <- I.one
  | Input k -> if n = 0 then x.(0) <- B.get inputs k
  | Neg a -> x.(n) <- I.neg w.(a).(n)
  | Add (a, b) -> x.(n) <- I.add w.(a).(n) w.(b).(n)
  | Sub (a, b) -> x.(n) <- I.sub w.(a).(n) w.(b).(n)
  | Mul (a, b) ->
      let a = w.(a) and b = w.(b) in
      let acc = ref I.zero in
      for j = 0 to n do
        acc := I.add !acc (I.mul a.(j) b.(n - j))
      done;
      x.(n) <- !acc
  | Div (a, b) ->
      let b = w.(b) in
      let acc = ref w.(a).(n) in
      for j = 0 to n - 1 do
        acc := I.sub !acc (I.mul x.(j) b.(n - j))
      done;
      x.(n) <- I.div !acc b.(0)
  | Sqrt a ->
      let a = w.(a) in
      if n = 0 then begin
        x.(0) <- I.sqrt a.(0);
        (* the evaluator divides by 2 r0 from coefficient 1 on, which
           every order >= 1 reaches at iteration 0 *)
        if I.contains (I.mul_float 2.0 x.(0)) 0.0 then
          raise I.Division_by_zero_interval
      end
      else begin
        let acc = ref a.(n) in
        for j = 1 to n - 1 do
          acc := I.sub !acc (I.mul x.(j) x.(n - j))
        done;
        x.(n) <- I.div !acc (I.mul_float 2.0 x.(0))
      end
  | Exp a ->
      let a = w.(a) in
      if n = 0 then x.(0) <- I.exp a.(0)
      else begin
        let acc = ref I.zero in
        for j = 1 to n do
          acc := I.add !acc (I.mul (I.mul_float (float_of_int j) a.(j)) x.(n - j))
        done;
        (* divide by the exact integer, not by a nearest-rounded 1/n *)
        x.(n) <- I.div !acc (I.of_float (float_of_int n))
      end
  | Sin_cos a ->
      let a = w.(a) and c = w.(i + 1) in
      if n = 0 then begin
        x.(0) <- I.sin a.(0);
        c.(0) <- I.cos a.(0)
      end
      else begin
        let sacc = ref I.zero and cacc = ref I.zero in
        for j = 1 to n do
          let ja = I.mul_float (float_of_int j) a.(j) in
          sacc := I.add !sacc (I.mul ja c.(n - j));
          cacc := I.add !cacc (I.mul ja x.(n - j))
        done;
        let n_iv = I.of_float (float_of_int n) in
        x.(n) <- I.div !sacc n_iv;
        c.(n) <- I.neg (I.div !cacc n_iv)
      end
  | Atan (a, g) ->
      let a = w.(a) and g = w.(g) in
      if n = 0 then begin
        x.(0) <- I.atan a.(0);
        (* g0 = 1 + a0 * a0 can contain 0 (the product does not know
           its factors are equal); the evaluator divides by m * g0 for
           m = 1..order at iteration 0 *)
        for m = 1 to order do
          if I.contains (I.mul_float (float_of_int m) g.(0)) 0.0 then
            raise I.Division_by_zero_interval
        done
      end
      else begin
        let acc = ref (I.mul_float (float_of_int n) a.(n)) in
        for j = 1 to n - 1 do
          acc := I.sub !acc (I.mul (I.mul_float (float_of_int j) x.(j)) g.(n - j))
        done;
        x.(n) <- I.div !acc (I.mul_float (float_of_int n) g.(0))
      end

(* Runs iterations 0..order-1 over nodes [0, upto): iteration j computes
   coefficient j of every node, then coefficient j+1 of the solution. *)
let run t ~upto ~order ~time ~state ~inputs =
  if order < 0 then invalid_arg "Tape.solution: negative order";
  let w = Array.init upto (fun _ -> Array.make (order + 1) I.zero) in
  for i = 0 to t.dim - 1 do
    w.(i).(0) <- B.get state i
  done;
  for j = 0 to order - 1 do
    for i = 0 to upto - 1 do
      coeff t.ops w ~order ~time ~inputs i j
    done;
    let j1 = I.of_float (float_of_int (j + 1)) in
    for d = 0 to t.dim - 1 do
      w.(d).(j + 1) <- I.div w.(t.rhs.(d)).(j) j1
    done
  done;
  w

let solution t ~order ~time ~state ~inputs =
  Array.sub (run t ~upto:t.rhs_nodes ~order ~time ~state ~inputs) 0 t.dim

let solution_jacobian t ~order ~time ~state ~inputs =
  let w = run t ~upto:(Array.length t.ops) ~order ~time ~state ~inputs in
  (Array.sub w 0 t.dim, Array.map (Array.map (fun i -> w.(i))) t.jacobian)

let horner coeffs d =
  let n = Array.length coeffs in
  let acc = ref coeffs.(n - 1) in
  for i = n - 2 downto 0 do
    acc := I.add coeffs.(i) (I.mul d !acc)
  done;
  !acc
