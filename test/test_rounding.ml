(* Property tests for the directed-rounding kernel.  The paper's whole
   soundness story rests on Rounding.*_down/_up bracketing the exact
   real result, so these tests verify the brackets with error-free
   transformations: TwoSum gives the exact addition error, and fma gives
   exact residuals for multiplication, division and square root — no
   appeal to a second rounding library needed. *)

module R = Nncs_interval.Rounding

(* ----- generators ----- *)

(* floats drawn uniformly from the *bit* representation: exercises
   subnormals, huge/tiny magnitudes, both zeros *)
let finite_float_gen =
  QCheck.Gen.(
    let* hi = int_bound 0xFFFF in
    let* mid = int_bound 0xFFFFFF in
    let* lo = int_bound 0xFFFFFF in
    let bits =
      Int64.(
        logor
          (shift_left (of_int hi) 48)
          (logor (shift_left (of_int mid) 24) (of_int lo)))
    in
    let x = Int64.float_of_bits bits in
    return (if Float.is_finite x then x else 1.0))

(* moderate-magnitude floats for arithmetic properties: keeps the
   error-free transformations themselves free of over/underflow *)
let mid_float_gen =
  QCheck.Gen.(
    let* mantissa = float_range (-1.0) 1.0 in
    let* e = int_range (-30) 30 in
    return (Float.ldexp mantissa e))

let arb_mid_pair =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "(%h, %h)" a b)
    QCheck.Gen.(tup2 mid_float_gen mid_float_gen)

let arb_mid = QCheck.make ~print:(Printf.sprintf "%h") mid_float_gen

let arb_any_finite =
  QCheck.make ~print:(Printf.sprintf "%h") finite_float_gen

(* ----- exact bracketing checks ----- *)

(* TwoSum (Knuth): s + e = a + b exactly, for any finite a b without
   overflow.  [a +. b] lies within one ulp of the true sum, and the
   float gaps [s - next_down s] / [next_up s - s] are exact floats, so
   all comparisons below are exact. *)
let two_sum a b =
  let s = a +. b in
  let bb = s -. a in
  let e = (a -. (s -. bb)) +. (b -. bb) in
  (s, e)

let brackets_via_two_sum lo hi a b =
  let s, e = two_sum a b in
  if e = 0.0 then lo <= s && s <= hi
  else if e > 0.0 then lo <= s && e <= hi -. s
  else s <= hi && -.e <= s -. lo

let prop_add_brackets =
  QCheck.Test.make ~count:2000 ~name:"add_down/up bracket the exact sum"
    arb_mid_pair (fun (a, b) ->
      brackets_via_two_sum (R.add_down a b) (R.add_up a b) a b)

let prop_sub_brackets =
  QCheck.Test.make ~count:2000 ~name:"sub_down/up bracket the exact difference"
    arb_mid_pair (fun (a, b) ->
      brackets_via_two_sum (R.sub_down a b) (R.sub_up a b) a (-.b))

(* For mul/div/sqrt the residual sign from a single fma is exact, which
   turns "x <= true result" into a float comparison. *)
let prop_mul_brackets =
  QCheck.Test.make ~count:2000 ~name:"mul_down/up bracket the exact product"
    arb_mid_pair (fun (a, b) ->
      let lo = R.mul_down a b and hi = R.mul_up a b in
      (* sign of (a*b - x) is the sign of fma a b (-x) *)
      Float.fma a b (-.lo) >= 0.0 && Float.fma a b (-.hi) <= 0.0)

let prop_div_brackets =
  QCheck.Test.make ~count:2000 ~name:"div_down/up bracket the exact quotient"
    arb_mid_pair (fun (a, b) ->
      QCheck.assume (b <> 0.0);
      let lo = R.div_down a b and hi = R.div_up a b in
      (* x <= a/b  <=>  x*b <= a (b>0) / x*b >= a (b<0); residual sign
         of fma x b (-a) decides exactly *)
      let r_lo = Float.fma lo b (-.a) and r_hi = Float.fma hi b (-.a) in
      if b > 0.0 then r_lo <= 0.0 && r_hi >= 0.0
      else r_lo >= 0.0 && r_hi <= 0.0)

let prop_sqrt_brackets =
  QCheck.Test.make ~count:2000 ~name:"sqrt_down/up bracket the exact root"
    arb_mid (fun a ->
      let a = Float.abs a in
      let lo = R.sqrt_down a and hi = R.sqrt_up a in
      (* lo <= sqrt a  <=>  lo < 0 or lo^2 <= a; fma gives the exact
         residual of the squares *)
      (lo < 0.0 || Float.fma lo lo (-.a) <= 0.0)
      && Float.fma hi hi (-.a) >= 0.0)

(* ----- next_up / next_down ----- *)

(* order-preserving integer encoding of IEEE doubles: adjacent floats
   map to adjacent integers *)
let ordered_bits x =
  let b = Int64.bits_of_float x in
  if Int64.compare b 0L >= 0 then b else Int64.sub Int64.min_int b

let prop_next_up_adjacent =
  QCheck.Test.make ~count:2000 ~name:"next_up is the adjacent float"
    arb_any_finite (fun x ->
      QCheck.assume (Float.is_finite x);
      let u = R.next_up x in
      u > x && Int64.sub (ordered_bits u) (ordered_bits x) = 1L)

let prop_next_down_adjacent =
  QCheck.Test.make ~count:2000 ~name:"next_down is the adjacent float"
    arb_any_finite (fun x ->
      QCheck.assume (Float.is_finite x);
      let d = R.next_down x in
      d < x && Int64.sub (ordered_bits x) (ordered_bits d) = 1L)

let prop_next_inverse =
  QCheck.Test.make ~count:2000 ~name:"next_down (next_up x) = x"
    arb_any_finite (fun x ->
      QCheck.assume (Float.is_finite x);
      R.next_down (R.next_up x) = x && R.next_up (R.next_down x) = x)

let test_next_specials () =
  let check = Alcotest.(check bool) in
  check "up inf" true (R.next_up Float.infinity = Float.infinity);
  check "down -inf" true (R.next_down Float.neg_infinity = Float.neg_infinity);
  check "up -inf leaves the infinity" true
    (R.next_up Float.neg_infinity = -.Float.max_float);
  check "down inf" true (R.next_down Float.infinity = Float.max_float);
  check "up nan" true (Float.is_nan (R.next_up Float.nan));
  check "down nan" true (Float.is_nan (R.next_down Float.nan));
  check "up 0 is min subnormal" true
    (R.next_up 0.0 = Int64.float_of_bits 1L);
  check "up -0 equals up +0" true (R.next_up (-0.0) = R.next_up 0.0);
  check "down min subnormal is 0" true
    (R.next_down (Int64.float_of_bits 1L) = 0.0);
  check "up max_float overflows to inf" true
    (R.next_up Float.max_float = Float.infinity);
  (* crossing zero downward lands on the negative subnormals *)
  check "down 0 is -min subnormal" true
    (R.next_down 0.0 = -.Int64.float_of_bits 1L)

let test_directed_specials () =
  let check = Alcotest.(check bool) in
  (* 0.1 + 0.2 is the classic inexact sum *)
  check "add strict" true (R.add_down 0.1 0.2 < 0.1 +. 0.2);
  check "lib margin is 4 ulps" true
    (R.lib_up 1.0 = R.next_up (R.next_up (R.next_up (R.next_up 1.0))));
  check "sqrt 2 bracket" true
    (let s = R.sqrt_down 2.0 and u = R.sqrt_up 2.0 in
     (s *. s < 2.0 || Float.fma s s (-2.0) <= 0.0)
     && Float.fma u u (-2.0) >= 0.0)

(* ----- the F# kernel's inlined successor / predecessor -----

   Symbolic_prop computes next_up/next_down arithmetically (Rump et al.,
   BIT 2009) on 2^-1019 <= |x| <= max_float and hands every other input
   to Rounding.  The two must agree bit for bit everywhere; the sweeps
   below cover random bit patterns, every power of two with its
   neighbours, the band around the theorem's excluded range, subnormals
   and the special values. *)

module K = Nncs_nnabs.Symbolic_prop.Internal

let same_bits a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [up]/[down] equal Rounding's next_up/next_down at [x], bit for bit *)
let agrees_with up down x =
  if Float.is_nan x then Float.is_nan (up x) && Float.is_nan (down x)
  else same_bits (up x) (R.next_up x) && same_bits (down x) (R.next_down x)

let agrees = agrees_with K.next_up K.next_down

let check_all_with agrees name xs =
  match List.find_opt (fun x -> not (agrees x)) xs with
  | None -> ()
  | Some x -> Alcotest.failf "%s: inlined rounding differs from Rounding at %h" name x

let check_all = check_all_with agrees

let test_inlined_random_bits () =
  let st = Random.State.make [| 20_09 |] in
  for _ = 1 to 1_000_000 do
    let x = Int64.float_of_bits (Random.State.bits64 st) in
    if not (agrees x) then
      Alcotest.failf "inlined rounding differs from Rounding at %h" x
  done

let with_neighbours x =
  [ x; R.next_up x; R.next_down x; -.x; R.next_up (-.x); R.next_down (-.x) ]

let test_inlined_powers_of_two () =
  check_all "powers of two"
    (List.concat_map
       (fun e -> with_neighbours (Float.ldexp 1.0 e))
       (List.init (1024 + 1074) (fun i -> i - 1074)))

let test_inlined_band_and_specials () =
  (* 2^-1023 .. 2^-1018 spans the subnormal top, the theorem's excluded
     band near 2^-1021 and the fast path's lower edge 2^-1019 *)
  let st = Random.State.make [| 1021 |] in
  let band =
    List.init 200_000 (fun _ ->
        let x = Float.ldexp (1.0 +. Random.State.float st 1.0) (-1023 + Random.State.int st 5) in
        if Random.State.bool st then x else -.x)
  in
  let subnormals =
    List.init 100_000 (fun _ ->
        let x = Int64.float_of_bits (Random.State.int64 st 0x0010_0000_0000_0000L) in
        if Random.State.bool st then x else -.x)
  in
  check_all "band 2^-1023..2^-1018" band;
  check_all "subnormals" subnormals;
  check_all "specials"
    (List.concat_map with_neighbours
       [
         0.0; Int64.float_of_bits 1L; Float.min_float; Float.max_float;
         0x1p-1019; 0x1p-1021; 0x1p-1022;
       ]
    @ [ -0.0; Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan ])

(* ----- the Taylor tape's assist-free helpers -----

   Nncs_ode.Tape computes its interval operations with helpers that
   answer a zero or subnormal operand without the FPU (DESIGN.md §20).
   Each must equal the FPU operation it replaces, except for the sign of
   a zero result, which the tape always nudges away.  So every result is
   compared with the FPU's after [Rounding.next_up] and after
   [Rounding.next_down]: equal bits under both nudges means equal bits,
   or two zeros.  The nudges themselves must equal [Rounding]'s bit for
   bit. *)

module T = Nncs_ode.Tape.Internal

let eta = 0x1p-1074
let of_count k = Int64.float_of_bits (Int64.of_int k)

let same_nudged a b =
  if Float.is_nan a || Float.is_nan b then Float.is_nan a && Float.is_nan b
  else
    same_bits (R.next_up a) (R.next_up b) && same_bits (R.next_down a) (R.next_down b)

let fpu_mul a b =
  let p = a *. b in
  if Float.is_nan p then 0.0 else p

let tape_agrees = agrees_with T.next_up T.next_down

(* the first operation on which a helper and the FPU differ *)
let binary_fault x y =
  if not (same_nudged (T.add x y) (x +. y)) then Some "add"
  else if not (same_nudged (T.sub x y) (x -. y)) then Some "sub"
  else if not (same_nudged (T.mul x y) (fpu_mul x y)) then Some "mul"
  else None

let check_pair name x y =
  match binary_fault x y with
  | None -> ()
  | Some op -> Alcotest.failf "%s: tape %s differs from the FPU at (%h, %h)" name op x y

let check_scale name j x =
  if not (same_nudged (T.scale j x) (float_of_int j *. x)) then
    Alcotest.failf "%s: tape scale differs from the FPU at (%d, %h)" name j x

let test_tape_nudges () =
  let st = Random.State.make [| 14 |] in
  for _ = 1 to 1_000_000 do
    let x = Int64.float_of_bits (Random.State.bits64 st) in
    if not (tape_agrees x) then
      Alcotest.failf "tape nudge differs from Rounding at %h" x
  done;
  check_all_with tape_agrees "tape, powers of two"
    (List.concat_map
       (fun e -> with_neighbours (Float.ldexp 1.0 e))
       (List.init (1024 + 1074) (fun i -> i - 1074)));
  check_all_with tape_agrees "tape, subnormals and specials"
    (List.init 100_000 (fun _ ->
         let x = Int64.float_of_bits (Random.State.int64 st 0x0020_0000_0000_0000L) in
         if Random.State.bool st then x else -.x)
    @ [ 0.0; -0.0; eta; -.eta; Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan ])

let signed st x = if Random.State.bool st then x else -.x

(* magnitudes on and around every guard of the rules *)
let guards =
  [ 0x1p-969; 0x1p-968; 0x1p-970; 0x1p-971; 0x1p-1019; 0x1p-1021; 0x1p-1022; 0x1p-1023;
    0x1p20; 0x1p-33; 0.5; 1.0 ]

(* the float [d] steps above (below, for d < 0) [x] *)
let rec walk x d =
  if d = 0 then x else if d > 0 then walk (Float.succ x) (d - 1) else walk (Float.pred x) (d + 1)

let near st g = walk g (Random.State.full_int st 9 - 4)

(* a random operand: zeros, dust of every size, normals around the
   guards and elsewhere, infinities and NaN *)
let operand st =
  match Random.State.full_int st 12 with
  | 0 -> signed st 0.0
  | 1 -> signed st (of_count (1 + Random.State.full_int st 1024))
  | 2 -> signed st (Int64.float_of_bits (Random.State.int64 st 0x0010_0000_0000_0000L))
  | 3 -> signed st (of_count (0x1_0000_0000 + Random.State.full_int st 9 - 4))
  | 4 -> signed st (Float.ldexp (1.0 +. Random.State.float st 1.0) (Random.State.full_int st 60 - 35))
  | 5 -> signed st (near st (List.nth guards (Random.State.full_int st (List.length guards))))
  | 6 -> Int64.float_of_bits (Random.State.bits64 st)
  | 7 -> List.nth [ Float.infinity; Float.neg_infinity; Float.nan ] (Random.State.full_int st 3)
  | 8 -> signed st (Float.ldexp (1.0 +. Random.State.float st 1.0) (Random.State.full_int st 64 - 1023))
  | 9 -> signed st (Float.ldexp (float_of_int (Random.State.full_int st 4096)) (- Random.State.full_int st 12))
  | 10 -> signed st (of_count (Random.State.full_int st 0x1_0000_0000))
  | _ -> signed st (Float.ldexp (Random.State.float st 1.0) (Random.State.full_int st 40 - 10))

let test_tape_random_mixes () =
  let st = Random.State.make [| 1074 |] in
  for _ = 1 to 1_000_000 do
    let x = operand st and y = operand st in
    check_pair "random mix" x y;
    let j =
      match Random.State.full_int st 4 with
      | 0 -> Random.State.full_int st 9
      | 1 -> 0x10_0000 + Random.State.full_int st 5 - 2
      | _ -> Random.State.full_int st 64
    in
    check_scale "random mix" j x
  done

(* k b = n + 1/2 exactly, k = m 2^p with m odd and b = (2r+1) / 2^(p+1):
   the nearest multiple of eta is a tie, which goes to the even n; the
   neighbours of b put the exact product just off the tie, where the
   rounded q = fl(k b) can still be the half-integer *)
let test_tape_ties () =
  let st = Random.State.make [| 2 |] in
  let parities = [| 0; 0 |] in
  for _ = 1 to 200_000 do
    let p = Random.State.full_int st 31 in
    let m = (2 * Random.State.full_int st (1 lsl (31 - p))) + 1 in
    let k = m lsl p in
    if k < 0x1_0000_0000 then begin
      let r = Random.State.full_int st (1 lsl (min 30 (19 + p))) in
      let b = Float.ldexp (float_of_int ((2 * r) + 1)) (-(p + 1)) in
      if b < 0x1p20 then begin
        let n = ((m * ((2 * r) + 1)) - 1) / 2 in
        parities.(n land 1) <- parities.(n land 1) + 1;
        let a = of_count k in
        List.iter
          (fun b ->
            check_pair "tie" a b;
            check_pair "tie" b a;
            check_pair "tie" (-.a) b;
            check_pair "tie" a (-.b))
          [ b; Float.succ b; Float.pred b ]
      end
    end;
    (* near-ties of small products: b next to (n + 1/2) / k *)
    let k = 1 + Random.State.full_int st 0xFFFF_FFFF in
    let n = Random.State.full_int st 4 in
    let b = (float_of_int n +. 0.5) /. float_of_int k in
    List.iter (fun b -> check_pair "near tie" (of_count k) b) [ b; Float.succ b; Float.pred b ]
  done;
  Alcotest.(check bool) "ties with even n" true (parities.(0) > 1000);
  Alcotest.(check bool) "ties with odd n" true (parities.(1) > 1000)

let test_tape_guard_edges () =
  let st = Random.State.make [| 969 |] in
  let around x = List.init 9 (fun i -> walk x (i - 4)) in
  (* dust: the counts near 2^32, 2^52 and small *)
  let dust =
    List.concat_map
      (fun k -> [ of_count k; -.of_count k ])
      ([ 1; 2; 3; 0x1_0000_0000 - 1; 0x1_0000_0000; 0x1_0000_0001; 0x8_0000_0000_0000 ]
      @ List.init 64 (fun _ -> Random.State.full_int st 0x10_0000_0000_0000))
    @ [ 0.0; -0.0; 0.75 *. 0x1p-1022; -0.75 *. 0x1p-1022; 0x1p-1023; -0x1p-1023 ]
  in
  let big =
    List.concat_map around
      [ 0x1p-969; 0x1p-968; 0x1p-970; 0x1p-971; 0x1p-1022; 0x1p-1021; 0x1p20; 0x1p-33 ]
  in
  let big = big @ List.map (fun x -> -.x) big in
  List.iter
    (fun d ->
      List.iter
        (fun x ->
          check_pair "guard edge" x d;
          check_pair "guard edge" d x)
        (big @ dust))
    dust;
  List.iter
    (fun x ->
      List.iter
        (fun j -> check_scale "scale guard" j x)
        [ 0; 1; 2; 3; 0xF_FFFF; 0x10_0000; 0x10_0001 ])
    (dust @ big)

let () =
  Alcotest.run "rounding"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_add_brackets;
            prop_sub_brackets;
            prop_mul_brackets;
            prop_div_brackets;
            prop_sqrt_brackets;
            prop_next_up_adjacent;
            prop_next_down_adjacent;
            prop_next_inverse;
          ] );
      ( "specials",
        [
          Alcotest.test_case "next_up/down special values" `Quick
            test_next_specials;
          Alcotest.test_case "directed op spot checks" `Quick
            test_directed_specials;
        ] );
      ( "inlined",
        [
          Alcotest.test_case "1M random bit patterns" `Quick
            test_inlined_random_bits;
          Alcotest.test_case "powers of two and neighbours" `Quick
            test_inlined_powers_of_two;
          Alcotest.test_case "2^-1021 band, subnormals, specials" `Quick
            test_inlined_band_and_specials;
        ] );
      ( "tape ops",
        [
          Alcotest.test_case "nudges pinned to Rounding" `Quick test_tape_nudges;
          Alcotest.test_case "1M random operand mixes" `Quick test_tape_random_mixes;
          Alcotest.test_case "constructed ties" `Quick test_tape_ties;
          Alcotest.test_case "guard edges" `Quick test_tape_guard_edges;
        ] );
    ]
