module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module R = Nncs_interval.Rounding

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

(* ----- assist-free interval arithmetic on lo/hi planes -----

   Many Taylor coefficients are exactly [0, 0] (the derivatives of a
   [Const] right-hand side, or of a trigonometric term under a constant
   input), and outward rounding turns each into [-eta, eta], eta =
   2^-1074.  Such "dust" then flows through every product and sum of
   the recurrence and of Horner, and an x86 FPU handles a subnormal
   operand or result with a microcode assist that costs some twenty
   times a normal operation.  The helpers below compute the interval
   operations of [Interval] on bare floats and never hand the FPU an
   operation whose result they already know exactly (DESIGN.md §20):

   1. nudges: Rump's arithmetic successor on 2^-1019 <= |x| (as in
      Symbolic_prop), the constants +-eta at +-0, a bit increment on
      the other finite |x| < 2^-1019, [Rounding] for +-inf and NaN;
   2. sum absorption: |y| < 2^-1022 < |x|/2^53 gives fl(x +- y) = x;
   3. dust sums: two operands below 2^-1022 add exactly, as integer
      counts of eta;
   4. dust products: 0 from a zero factor or two subnormal ones, and
      RNE(k b) eta for a = k eta (|k| < 2^32) times a normal |b| < 2^20;
   5. integer scale: j (k eta) = (j k) eta for j <= 2^20, |k| < 2^32.

   Each returns the FPU's value bit for bit, except that rules 2-4 may
   return +0 where the FPU returns -0.  That sign never shows: every
   sum and scale result is nudged at once, and every product goes
   through the min/max of [mul] and then a nudge; [next_up]/[next_down]
   map both zeros alike.  test_rounding pins each helper to the FPU
   operation under both nudges.

   A result that comes out of a branch with an out-of-line call goes
   through a local ref, so that the compiler keeps the other branches'
   floats unboxed (see Symbolic_prop). *)

let eta = 0x1p-1074
let min_normal = 0x1p-1022
let absorb_min = 0x1p-969
let succ_phi = 0x1.0000000000001p-53
let fast_min = 0x1p-1019
let fast_max = 0x1.fffffffffffffp1023 (* max_float *)
let count_max = 0x1_0000_0000 (* 2^32 *)
let factor_max = 0x1p20
let scale_max = 0x10_0000 (* 2^20 *)

(* The count of eta in a value below 2^-1021 in magnitude: below that,
   the bit pattern of |x| is |x| / eta. *)
let[@inline] eta_count x = Int64.to_int (Int64.bits_of_float (Float.abs x))

let[@inline] signed_count x = if x < 0.0 then -eta_count x else eta_count x

(* n eta for |n| <= 2^53, exactly *)
let[@inline] of_count n =
  let v = Int64.float_of_bits (Int64.of_int (abs n)) in
  if n < 0 then -.v else v

let[@inline] next_up x =
  let r = ref x in
  let a = Float.abs x in
  if a >= fast_min && a <= fast_max then r := x +. ((succ_phi *. a) +. eta)
  else if a = 0.0 then r := eta
  else if a < fast_min then begin
    let b = Int64.bits_of_float x in
    r := Int64.float_of_bits (if x > 0.0 then Int64.add b 1L else Int64.sub b 1L)
  end
  else r := R.next_up x;
  !r
[@@lint.fp_exact
  "successor: Rump's arithmetic one on its proven range, bit increments \
   below it, Rounding for inf/NaN; equals Rounding.next_up bitwise"]

let[@inline] next_down x =
  let r = ref x in
  let a = Float.abs x in
  if a >= fast_min && a <= fast_max then r := x -. ((succ_phi *. a) +. eta)
  else if a = 0.0 then r := -.eta
  else if a < fast_min then begin
    let b = Int64.bits_of_float x in
    r := Int64.float_of_bits (if x > 0.0 then Int64.sub b 1L else Int64.add b 1L)
  end
  else r := R.next_down x;
  !r
[@@lint.fp_exact
  "predecessor: Rump's arithmetic one on its proven range, bit \
   decrements below it, Rounding for inf/NaN; equals Rounding.next_down \
   bitwise"]

(* [x +. y], nearest-rounded, up to the sign of a zero result.  The
   absorption bound is strict: below 2^-969 = 2^-1022 * 2^53 the gap
   under a power of two is 2^-1022 itself, so 2^-969 - 0.75 * 2^-1022
   rounds down, not to 2^-969. *)
let[@inline] add x y =
  let r = ref 0.0 in
  let mx = Float.abs x and my = Float.abs y in
  if my < min_normal then begin
    if mx > absorb_min then r := x
    else if mx < min_normal then r := of_count (signed_count x + signed_count y)
    else r := x +. y
  end
  else if mx < min_normal && my > absorb_min then r := y
  else r := x +. y;
  !r
[@@lint.fp_exact
  "nearest-rounded sum (absorbed or exact dust sums computed without \
   the FPU); every caller nudges it outward"]

(* [x -. y] is [x +. (-.y)] bit for bit *)
let[@inline] sub x y = add x (-.y)

(* a k eta, k < 2^32, times b >= 2^-1022 in magnitude, nearest-rounded.
   For |b| < 2^20 the product is below 2^-1022, where the floats are the
   multiples of eta, so it is RNE(k b) eta: q = fl(k b) is exact to
   within half its ulp, and when q is a half-integer the exact residual
   k b - q (an fma) decides, ties to even.  Larger factors, inf and NaN
   take the FPU. *)
let[@inline] dust_mul a b =
  let r = ref 0.0 in
  let k = eta_count a and mb = Float.abs b in
  if k < count_max && mb < factor_max then begin
    let fk = float_of_int k in
    let q = fk *. mb in
    if q >= 0.5 then begin
      let m = int_of_float q in
      let f = q -. float_of_int m in
      let n =
        if f > 0.5 then m + 1
        else if f < 0.5 then m
        else
          let e = Float.fma fk mb (-.q) in
          if e > 0.0 || (e = 0.0 && m land 1 = 1) then m + 1 else m
      in
      let v = Int64.float_of_bits (Int64.of_int n) in
      r := if (a < 0.0) <> (b < 0.0) then -.v else v
    end
  end
  else begin
    let p = a *. b in
    if not (Float.is_nan p) then r := p
  end;
  !r
[@@lint.fp_exact
  "nearest-rounded dust product computed in integers, exactly as the \
   FPU rounds it; every caller nudges it outward"]

(* Interval's endpoint product [*..]: [a *. b], with NaN read as 0. *)
let[@inline] mul a b =
  let r = ref 0.0 in
  let ma = Float.abs a and mb = Float.abs b in
  if ma >= min_normal && mb >= min_normal then r := a *. b
  else if ma < min_normal then begin
    (* a zero factor, or two subnormal ones: 0 *)
    if ma > 0.0 && mb >= min_normal then r := dust_mul a b
  end
  else if mb < min_normal then begin
    if mb > 0.0 then r := dust_mul b a
  end;
  (* what is left has a NaN factor: 0 *)
  !r
[@@lint.fp_exact
  "raw endpoint product (dust cases exact without the FPU); the interval \
   product nudges the min/max outward"]

(* [float_of_int j *. x] for 0 <= j, nearest-rounded *)
let[@inline] scale j x =
  let r = ref 0.0 in
  let mx = Float.abs x in
  if mx >= min_normal || Float.is_nan x then r := float_of_int j *. x
  else if mx > 0.0 then begin
    let k = eta_count x in
    if k < count_max && j <= scale_max then
      r := (if x < 0.0 then of_count (-(j * k)) else of_count (j * k))
    else r := float_of_int j *. x
  end;
  !r
[@@lint.fp_exact
  "nearest-rounded product by a small integer (dust scaled in integers); \
   every caller nudges it outward"]

(* min and max of products, which are never NaN; on two zeros either
   may come out, which the outward nudge after them cannot tell apart *)
let[@inline] min2 (a : float) b = if b < a then b else a
let[@inline] max2 (a : float) b = if b > a then b else a

(* Interval.mul of [al, ah] and [bl, bh] into t.(0), t.(1); each endpoint
   product is formed once. *)
let[@inline] imul (t : float array) al ah bl bh =
  let p1 = mul al bl and p2 = mul al bh and p3 = mul ah bl and p4 = mul ah bh in
  t.(0) <- next_down (min2 (min2 p1 p2) (min2 p3 p4));
  t.(1) <- next_up (max2 (max2 p1 p2) (max2 p3 p4))

(* Interval.div: raises when [bl, bh] contains 0, else multiplies by the
   outward inverse *)
let idiv t al ah bl bh =
  if bl <= 0.0 && 0.0 <= bh then raise I.Division_by_zero_interval;
  imul t al ah (R.div_down 1.0 bh) (R.div_up 1.0 bl)

(* Interval.mul_float of the integer j >= 0 *)
let[@inline] scale_lo j x = next_down (scale j x)
let[@inline] scale_hi j x = next_up (scale j x)

(* ----- the recurrence on planes -----

   Coefficient n of node i lives at index i * stride + n of two float
   arrays, [lo] and [hi], stride = order + 1.  Both are allocated per
   run, so the tape itself stays immutable. *)

type coeffs = { lo : float array; hi : float array; stride : int; dims : int }

let[@inline] set p k v =
  p.lo.(k) <- I.lo v;
  p.hi.(k) <- I.hi v

let[@inline] get p k = I.make_unchecked p.lo.(k) p.hi.(k)

(* Coefficient [n] of node [i], from coefficients [0..n] of its operands
   and [0..n-1] of itself.  Each case is, term by term and in the same
   order, the loop of the whole-series jet operator (the test oracle
   test/series_oracle.ml keeps them); see the float-op-order contract in
   tape.mli.  [t] is a two-slot scratch for products; [inv_lo]/[inv_hi]
   enclose 1/m for m = 1..order. *)
let coeff ops p t ~inv_lo ~inv_hi ~order ~time ~inputs i n =
  let lo = p.lo and hi = p.hi and s = p.stride in
  let x = i * s in
  match ops.(i) with
  | State _ | Cos_of_pair -> ()
  | Const c -> if n = 0 then set p x (I.of_float c)
  | Time ->
      if n = 0 then set p x time
      else if n = 1 then begin
        lo.(x + 1) <- 1.0;
        hi.(x + 1) <- 1.0
      end
  | Input k -> if n = 0 then set p x (B.get inputs k)
  | Neg a ->
      let a = (a * s) + n in
      lo.(x + n) <- -.hi.(a);
      hi.(x + n) <- -.lo.(a)
  | Add (a, b) ->
      let a = (a * s) + n and b = (b * s) + n in
      lo.(x + n) <- next_down (add lo.(a) lo.(b));
      hi.(x + n) <- next_up (add hi.(a) hi.(b))
  | Sub (a, b) ->
      let a = (a * s) + n and b = (b * s) + n in
      lo.(x + n) <- next_down (sub lo.(a) hi.(b));
      hi.(x + n) <- next_up (sub hi.(a) lo.(b))
  | Mul (a, b) ->
      let a = a * s and b = (b * s) + n in
      let acc_lo = ref 0.0 and acc_hi = ref 0.0 in
      for j = 0 to n do
        imul t lo.(a + j) hi.(a + j) lo.(b - j) hi.(b - j);
        acc_lo := next_down (add !acc_lo t.(0));
        acc_hi := next_up (add !acc_hi t.(1))
      done;
      lo.(x + n) <- !acc_lo;
      hi.(x + n) <- !acc_hi
  | Div (a, b) ->
      let b = b * s in
      let acc_lo = ref lo.((a * s) + n) and acc_hi = ref hi.((a * s) + n) in
      for j = 0 to n - 1 do
        imul t lo.(x + j) hi.(x + j) lo.(b + n - j) hi.(b + n - j);
        acc_lo := next_down (sub !acc_lo t.(1));
        acc_hi := next_up (sub !acc_hi t.(0))
      done;
      idiv t !acc_lo !acc_hi lo.(b) hi.(b);
      lo.(x + n) <- t.(0);
      hi.(x + n) <- t.(1)
  | Sqrt a ->
      let a = a * s in
      if n = 0 then begin
        set p x (I.sqrt (get p a));
        (* the evaluator divides by 2 r0 from coefficient 1 on, which
           every order >= 1 reaches at iteration 0 *)
        if scale_lo 2 lo.(x) <= 0.0 && 0.0 <= scale_hi 2 hi.(x) then
          raise I.Division_by_zero_interval
      end
      else begin
        let acc_lo = ref lo.(a + n) and acc_hi = ref hi.(a + n) in
        for j = 1 to n - 1 do
          imul t lo.(x + j) hi.(x + j) lo.(x + n - j) hi.(x + n - j);
          acc_lo := next_down (sub !acc_lo t.(1));
          acc_hi := next_up (sub !acc_hi t.(0))
        done;
        idiv t !acc_lo !acc_hi (scale_lo 2 lo.(x)) (scale_hi 2 hi.(x));
        lo.(x + n) <- t.(0);
        hi.(x + n) <- t.(1)
      end
  | Exp a ->
      let a = a * s in
      if n = 0 then set p x (I.exp (get p a))
      else begin
        let acc_lo = ref 0.0 and acc_hi = ref 0.0 in
        for j = 1 to n do
          imul t (scale_lo j lo.(a + j)) (scale_hi j hi.(a + j)) lo.(x + n - j)
            hi.(x + n - j);
          acc_lo := next_down (add !acc_lo t.(0));
          acc_hi := next_up (add !acc_hi t.(1))
        done;
        (* divide by the exact integer, not by a nearest-rounded 1/n *)
        imul t !acc_lo !acc_hi inv_lo.(n) inv_hi.(n);
        lo.(x + n) <- t.(0);
        hi.(x + n) <- t.(1)
      end
  | Sin_cos a ->
      let a = a * s and c = x + s in
      if n = 0 then begin
        let a0 = get p a in
        set p x (I.sin a0);
        set p c (I.cos a0)
      end
      else begin
        let s_lo = ref 0.0 and s_hi = ref 0.0 in
        let c_lo = ref 0.0 and c_hi = ref 0.0 in
        for j = 1 to n do
          let ja_lo = scale_lo j lo.(a + j) and ja_hi = scale_hi j hi.(a + j) in
          imul t ja_lo ja_hi lo.(c + n - j) hi.(c + n - j);
          s_lo := next_down (add !s_lo t.(0));
          s_hi := next_up (add !s_hi t.(1));
          imul t ja_lo ja_hi lo.(x + n - j) hi.(x + n - j);
          c_lo := next_down (add !c_lo t.(0));
          c_hi := next_up (add !c_hi t.(1))
        done;
        imul t !s_lo !s_hi inv_lo.(n) inv_hi.(n);
        lo.(x + n) <- t.(0);
        hi.(x + n) <- t.(1);
        imul t !c_lo !c_hi inv_lo.(n) inv_hi.(n);
        lo.(c + n) <- -.t.(1);
        hi.(c + n) <- -.t.(0)
      end
  | Atan (a, g) ->
      let a = a * s and g = g * s in
      if n = 0 then begin
        set p x (I.atan (get p a));
        (* g0 = 1 + a0 * a0 can contain 0 (the product does not know
           its factors are equal); the evaluator divides by m * g0 for
           m = 1..order at iteration 0 *)
        for m = 1 to order do
          if scale_lo m lo.(g) <= 0.0 && 0.0 <= scale_hi m hi.(g) then
            raise I.Division_by_zero_interval
        done
      end
      else begin
        let acc_lo = ref (scale_lo n lo.(a + n)) and acc_hi = ref (scale_hi n hi.(a + n)) in
        for j = 1 to n - 1 do
          imul t (scale_lo j lo.(x + j)) (scale_hi j hi.(x + j)) lo.(g + n - j)
            hi.(g + n - j);
          acc_lo := next_down (sub !acc_lo t.(1));
          acc_hi := next_up (sub !acc_hi t.(0))
        done;
        idiv t !acc_lo !acc_hi (scale_lo n lo.(g)) (scale_hi n hi.(g));
        lo.(x + n) <- t.(0);
        hi.(x + n) <- t.(1)
      end

(* Runs iterations 0..order-1 over nodes [0, upto): iteration j computes
   coefficient j of every node, then coefficient j+1 of the solution. *)
let run t ~upto ~order ~time ~state ~inputs =
  if order < 0 then invalid_arg "Tape.solution: negative order";
  let s = order + 1 in
  let p =
    { lo = Array.make (upto * s) 0.0; hi = Array.make (upto * s) 0.0; stride = s; dims = t.dim }
  in
  for i = 0 to t.dim - 1 do
    set p (i * s) (B.get state i)
  done;
  (* Interval.inv of the exact integer m, as Interval.div forms it *)
  let inv_lo = Array.init s (fun m -> R.div_down 1.0 (float_of_int m))
  and inv_hi = Array.init s (fun m -> R.div_up 1.0 (float_of_int m)) in
  let tmp = Array.make 2 0.0 in
  for j = 0 to order - 1 do
    for i = 0 to upto - 1 do
      coeff t.ops p tmp ~inv_lo ~inv_hi ~order ~time ~inputs i j
    done;
    for d = 0 to t.dim - 1 do
      let r = (t.rhs.(d) * s) + j in
      imul tmp p.lo.(r) p.hi.(r) inv_lo.(j + 1) inv_hi.(j + 1);
      p.lo.((d * s) + j + 1) <- tmp.(0);
      p.hi.((d * s) + j + 1) <- tmp.(1)
    done
  done;
  p

let series p node = Array.init p.stride (fun k -> get p ((node * p.stride) + k))

let solution t ~order ~time ~state ~inputs =
  let p = run t ~upto:t.rhs_nodes ~order ~time ~state ~inputs in
  Array.init t.dim (series p)

let solution_jacobian t ~order ~time ~state ~inputs =
  let p = run t ~upto:(Array.length t.ops) ~order ~time ~state ~inputs in
  (Array.init t.dim (series p), Array.map (Array.map (series p)) t.jacobian)

let coeffs t ~order ~time ~state ~inputs =
  run t ~upto:t.rhs_nodes ~order ~time ~state ~inputs

let expand low ~remainder d =
  let k = low.stride in
  if remainder.stride <> k + 1 || remainder.dims <> low.dims then
    invalid_arg "Tape.expand: the remainder must be one order above";
  let dl = I.lo d and dh = I.hi d in
  let t = Array.make 2 0.0 in
  Array.init low.dims (fun i ->
      let r = (i * (k + 1)) + k and c = i * k in
      let acc_lo = ref remainder.lo.(r) and acc_hi = ref remainder.hi.(r) in
      for m = k - 1 downto 0 do
        imul t dl dh !acc_lo !acc_hi;
        acc_lo := next_down (add low.lo.(c + m) t.(0));
        acc_hi := next_up (add low.hi.(c + m) t.(1))
      done;
      I.make_unchecked !acc_lo !acc_hi)

let horner coeffs d =
  let n = Array.length coeffs in
  let acc = ref coeffs.(n - 1) in
  for i = n - 2 downto 0 do
    acc := I.add coeffs.(i) (I.mul d !acc)
  done;
  !acc

(* The rules' helpers, for the bitwise tests against the FPU. *)
module Internal = struct
  let next_up = next_up
  let next_down = next_down
  let add = add
  let sub = sub
  let mul = mul
  let scale = scale
end
