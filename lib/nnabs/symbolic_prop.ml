module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module R = Nncs_interval.Rounding
module Mat = Nncs_linalg.Mat
module Net = Nncs_nn.Network
module Span = Nncs_obs.Span
module Metrics = Nncs_obs.Metrics

let m_neurons = Metrics.counter "nnabs.relu_neurons"

(* unstable = straddling 0, requiring the chord relaxation (the neuron a
   complete verifier would case-split on) *)
let m_unstable = Metrics.counter "nnabs.unstable_neurons"

let ulp_unit = 0x1.0p-53

(* Upper bound on the sum of rounding errors of an inner-product style
   accumulation: n operations whose partial results are bounded by
   [absacc] (the sum of absolute values of the terms). *)
let accumulation_error n absacc =
  2.0 *. float_of_int (n + 2) *. ulp_unit *. absacc

(* max |x_k| over the input box, floored at 1 so constant-term rounding
   is also covered when folded with the same factor *)
let input_magnitude box =
  let m = ref 1.0 in
  for k = 0 to B.dim box - 1 do
    m := Float.max !m (I.mag (B.get box k))
  done;
  !m

(* ----- dense kernel state -----

   A plane holds one side (lower or upper) of the symbolic bounds of a
   whole layer: for n neurons over m network inputs, the affine
   coefficients live in one flat row-major n*m array, with per-neuron
   constant and accumulated-error terms alongside.  Every neuron's value
   satisfies  lo(x) - lo_err <= value(x) <= up(x) + up_err  over the
   input box.  The four planes (lower/upper x current/next) are scratch
   buffers owned by the calling domain and reused across layers and
   calls, so the hot loop performs no per-neuron allocation. *)

type plane = {
  mutable c : float array;  (* row-major n*m coefficients *)
  mutable k : float array;  (* n constant terms *)
  mutable e : float array;  (* n error bounds, >= 0 *)
}

let make_plane () = { c = [||]; k = [||]; e = [||] }

let ensure p n m =
  if Array.length p.c < n * m then p.c <- Array.make (n * m) 0.0;
  if Array.length p.k < n then p.k <- Array.make n 0.0;
  if Array.length p.e < n then p.e <- Array.make n 0.0

type scratch = {
  mutable cur_lo : plane;
  mutable cur_up : plane;
  mutable nxt_lo : plane;
  mutable nxt_up : plane;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        cur_lo = make_plane ();
        cur_up = make_plane ();
        nxt_lo = make_plane ();
        nxt_up = make_plane ();
      })

let swap s =
  let l = s.cur_lo and u = s.cur_up in
  s.cur_lo <- s.nxt_lo;
  s.cur_up <- s.nxt_up;
  s.nxt_lo <- l;
  s.nxt_up <- u

(* ----- directed rounding, inlined -----

   The kernel's outward nudges are [Rounding]'s, bit for bit, but
   compiled into the loops that use them.  [Rounding.next_up] sits in
   another module, which the dev profile's [-opaque] keeps from being
   inlined, and it is built on [Int64.bits_of_float]/[float_of_bits],
   two C calls in OCaml 5.1: every nudge boxed a float and left OCaml
   twice.  For finite [x] with 2^-1019 <= |x| the successor is the
   round-to-nearest sum [x + (phi*|x| + eta)], phi = 2^-53 (1 + 2^-52),
   eta = 2^-1074 (Rump, Zimmermann, Boldo & Melquiond, "Computing
   predecessor and successor in rounding to nearest", BIT 49, 2009), and
   the predecessor is [x - (phi*|x| + eta)].  The theorem excludes a band
   near 2^-1021, where the sum can land two ulps away; zeros, subnormals,
   that band, infinities and NaN therefore take [Rounding]'s bit-level
   path, which stays the one definition.  test_rounding checks both
   helpers against [Rounding] bitwise. *)

let succ_phi = 0x1.0000000000001p-53
let succ_eta = 0x1p-1074
let fast_min = 0x1p-1019
let fast_max = 0x1.fffffffffffffp1023 (* max_float *)

(* The result goes through a local ref so the compiler keeps it unboxed
   even though one branch is an out-of-line call: a float [let] bound to
   such an [if] would box the fast path's result too. *)
let[@inline] next_up x =
  let r = ref x in
  let a = Float.abs x in
  if a >= fast_min && a <= fast_max then r := x +. ((succ_phi *. a) +. succ_eta)
  else r := R.next_up x;
  !r
[@@lint.fp_exact "arithmetic successor: equals Rounding.next_up bitwise on its guarded range"]

let[@inline] next_down x =
  let r = ref x in
  let a = Float.abs x in
  if a >= fast_min && a <= fast_max then r := x -. ((succ_phi *. a) +. succ_eta)
  else r := R.next_down x;
  !r
[@@lint.fp_exact "arithmetic predecessor: equals Rounding.next_down bitwise on its guarded range"]

let[@inline] add_up a b = next_up (a +. b)
[@@lint.fp_exact "nearest-rounded sum nudged up, as Rounding.add_up"]

let[@inline] add_down a b = next_down (a +. b)
[@@lint.fp_exact "nearest-rounded sum nudged down, as Rounding.add_down"]

let[@inline] sub_up a b = next_up (a -. b)
[@@lint.fp_exact "nearest-rounded difference nudged up, as Rounding.sub_up"]

let[@inline] sub_down a b = next_down (a -. b)
[@@lint.fp_exact "nearest-rounded difference nudged down, as Rounding.sub_down"]

let[@inline] mul_up a b = next_up (a *. b)
[@@lint.fp_exact "nearest-rounded product nudged up, as Rounding.mul_up"]

let[@inline] mul_down a b = next_down (a *. b)
[@@lint.fp_exact "nearest-rounded product nudged down, as Rounding.mul_down"]

(* Concrete bounds of row [i] of a plane over the input box, whose
   bounds are [blo]/[bhi], outward rounded.

   A non-finite plane coefficient poisons the whole row: the sign tests
   below are both false for NaN (silently dropping the term — an
   unsoundly *finite* bound), and an infinite coefficient of the wrong
   sign could even drive the accumulator to the unsound side.  Stop at
   the first one with the conservative infinity instead; the same guard
   maps a NaN accumulator (e.g. a NaN constant or error term) to
   infinity. *)
let eval_upper_row blo bhi p i m =
  let off = i * m and c = p.c in
  let acc = ref (add_up p.k.(i) p.e.(i)) in
  let kk = ref 0 in
  while !kk < m do
    let ck = c.(off + !kk) in
    if Float.is_finite ck then begin
      if ck > 0.0 then acc := add_up !acc (mul_up ck bhi.(!kk))
      else if ck < 0.0 then acc := add_up !acc (mul_up ck blo.(!kk));
      incr kk
    end
    else begin
      acc := Float.infinity;
      kk := m
    end
  done;
  if Float.is_nan !acc then Float.infinity else !acc

let eval_lower_row blo bhi p i m =
  let off = i * m and c = p.c in
  let acc = ref (sub_down p.k.(i) p.e.(i)) in
  let kk = ref 0 in
  while !kk < m do
    let ck = c.(off + !kk) in
    if Float.is_finite ck then begin
      if ck > 0.0 then acc := add_down !acc (mul_down ck blo.(!kk))
      else if ck < 0.0 then acc := add_down !acc (mul_down ck bhi.(!kk));
      incr kk
    end
    else begin
      acc := Float.neg_infinity;
      kk := m
    end
  done;
  if Float.is_nan !acc then Float.neg_infinity else !acc

(* The output interval when the two evaluated bounds contradict each
   other ([lo > hi]): each bound is only sound up to the slack that
   produced the inversion, so widen the ordered hull by that amount on
   both sides instead of silently swapping the endpoints (which would
   claim a tighter interval than either bound supports).  The width
   [d = lo - hi] must itself be rounded *up*: computed round-to-nearest
   it can undershoot the true gap, leaving the inflated hull short of
   covering both original bounds (observable when [hi] is within an ulp
   of the gap — see the adversarial-magnitude regression test). *)
let inverted_hull lo hi =
  let d = R.sub_up lo hi in
  I.inflate (I.make hi lo) d

let zero_row p i m =
  Array.fill p.c (i * m) m 0.0;
  p.k.(i) <- 0.0;
  p.e.(i) <- 0.0

(* The affine layer: dst = W * src + b on both bound planes at once.
   Positive weights pull from the same-side plane, negative weights from
   the opposite side; per-row rounding is folded into the error term
   exactly as an inner-product accumulation of nterms*(m+1)+1 ops.

   The coefficient loops index without bounds checks: the check below
   and [ensure] on the destinations give every plane at least
   [rows * m] coefficients, [Mat.data w] holds [n * cols] weights, and
   [by_sign] has two entries. *)
let affine_rows ~xmag w b m src_lo src_up dst_lo dst_up =
  let n = Mat.rows w and cols = Mat.cols w in
  if Array.length src_lo.c < cols * m || Array.length src_up.c < cols * m then
    invalid_arg "Symbolic_prop.affine_rows: source plane too small";
  ensure dst_lo n m;
  ensure dst_up n m;
  let wd = Mat.data w and dlc = dst_lo.c and duc = dst_up.c in
  (* indexed by [wij > 0.0]: the weights' signs follow no pattern, so a
     branch per weight to pick the planes would mispredict half the time *)
  let by_sign = [| src_lo; src_up |] in
  for i = 0 to n - 1 do
    let off = i * m and woff = i * cols in
    Array.fill dlc off m 0.0;
    Array.fill duc off m 0.0;
    let bi = b.(i) in
    let up_const = ref bi and lo_const = ref bi in
    let up_abs = ref (Float.abs bi) and lo_abs = ref (Float.abs bi) in
    let up_err = ref 0.0 and lo_err = ref 0.0 in
    let nterms = ref 0 in
    for j = 0 to cols - 1 do
      let wij = Array.unsafe_get wd (woff + j) in
      if (wij <> 0.0) [@lint.fp_exact "exact zero test: skips structurally-zero terms; NaN falls through conservatively"] then begin
        incr nterms;
        let pos = Bool.to_int (wij > 0.0) in
        let su = Array.unsafe_get by_sign pos in
        let sl = Array.unsafe_get by_sign (1 - pos) in
        let suc = su.c and slc = sl.c and joff = j * m in
        for kk = 0 to m - 1 do
          let p = wij *. Array.unsafe_get suc (joff + kk) in
          Array.unsafe_set duc (off + kk) (Array.unsafe_get duc (off + kk) +. p);
          up_abs := !up_abs +. Float.abs p
        done;
        let pc = wij *. su.k.(j) in
        up_const := !up_const +. pc;
        up_abs := !up_abs +. Float.abs pc;
        up_err := add_up !up_err (mul_up (Float.abs wij) su.e.(j));
        for kk = 0 to m - 1 do
          let p = wij *. Array.unsafe_get slc (joff + kk) in
          Array.unsafe_set dlc (off + kk) (Array.unsafe_get dlc (off + kk) +. p);
          lo_abs := !lo_abs +. Float.abs p
        done;
        let pc = wij *. sl.k.(j) in
        lo_const := !lo_const +. pc;
        lo_abs := !lo_abs +. Float.abs pc;
        lo_err := add_up !lo_err (mul_up (Float.abs wij) sl.e.(j))
      end
    done;
    dst_up.k.(i) <- !up_const;
    dst_lo.k.(i) <- !lo_const;
    if !nterms = 0 then begin
      dst_up.e.(i) <- 0.0;
      dst_lo.e.(i) <- 0.0
    end
    else begin
      let nops = (!nterms * (m + 1)) + 1 in
      dst_up.e.(i) <- add_up !up_err (accumulation_error nops (!up_abs *. xmag));
      dst_lo.e.(i) <- add_up !lo_err (accumulation_error nops (!lo_abs *. xmag))
    end
  done

(* The chord slope u / (u - l) for an unstable node, as an interval to
   bound the float division error. *)
let chord_slope l u =
  I.div (I.of_float u) (I.sub (I.of_float u) (I.of_float l))

(* Row i scaled in place by [lam] with [bias] added: the single-term
   affine combination, with its rounding folded into the error term. *)
let scale_row ~xmag p i m lam bias =
  let off = i * m and c = p.c in
  let absacc = ref (Float.abs bias) in
  for kk = 0 to m - 1 do
    let pr = lam *. c.(off + kk) in
    c.(off + kk) <- pr;
    absacc := !absacc +. Float.abs pr
  done;
  let pc = lam *. p.k.(i) in
  p.k.(i) <- bias +. pc;
  absacc := !absacc +. Float.abs pc;
  let err = add_up 0.0 (mul_up (Float.abs lam) p.e.(i)) in
  p.e.(i) <- add_up err (accumulation_error (m + 2) (!absacc *. xmag))

(* ReLU relaxation of a whole layer in place (ReluVal/Neurify rules)
   over the input box [blo]/[bhi]; counts straddling neurons into
   [unstable]. *)
let relu_rows ~unstable ~xmag blo bhi p_lo p_up n m =
  for i = 0 to n - 1 do
    let l_lo = eval_lower_row blo bhi p_lo i m
    and u_up = eval_upper_row blo bhi p_up i m in
    if l_lo >= 0.0 then () (* stable active *)
    else if u_up <= 0.0 then begin
      (* stable inactive *)
      zero_row p_lo i m;
      zero_row p_up i m
    end
    else begin
      Stdlib.incr unstable;
      (* upper: relu(v) <= lam * (v - l) for v in [l, u], lam = u/(u-l),
         applied to the upper equation with its own concrete lower bound *)
      let l_up = eval_lower_row blo bhi p_up i m in
      if l_up >= 0.0 then ()
      else begin
        let lam_iv = chord_slope l_up u_up in
        let lam = I.mid lam_iv in
        (* bias -lam*l_up, slope error |lam' - lam| * (u - l) folded in *)
        scale_row ~xmag p_up i m lam (-.lam *. l_up);
        let slope_slack = mul_up (I.width lam_iv) (sub_up u_up l_up) in
        let bias_slack =
          (* -lam*l_up computed in float: one mul rounding *)
          mul_up 4.0 (mul_up ulp_unit (Float.abs (lam *. l_up)))
        in
        p_up.e.(i) <- add_up p_up.e.(i) (add_up slope_slack bias_slack)
      end;
      (* lower: relu(v) >= lam * v for v in [l, u], lam = u/(u-l) in [0,1],
         applied to the lower equation with its own concrete bounds *)
      let u_lo = eval_upper_row blo bhi p_lo i m in
      if u_lo <= 0.0 then zero_row p_lo i m
      else begin
        let l = l_lo and u = u_lo in
        let lam_iv = chord_slope l u in
        let lam = I.mid lam_iv in
        scale_row ~xmag p_lo i m lam 0.0;
        let slope_slack =
          mul_up (I.width lam_iv) (Float.max (Float.abs l) (Float.abs u))
        in
        p_lo.e.(i) <- add_up p_lo.e.(i) slope_slack
      end
    end
  done

(* Run the whole network through the domain's scratch planes over the
   box whose bounds are [blo]/[bhi]; afterwards [cur_lo]/[cur_up] hold
   the output layer's bounds.  Callers must materialise what they need
   before the next propagation reuses the buffers. *)
let propagate_planes net box blo bhi =
  if B.dim box <> Net.input_dim net then
    invalid_arg "Symbolic_prop.propagate: input dimension mismatch";
  let xmag = input_magnitude box in
  let m = B.dim box in
  let s = Domain.DLS.get scratch_key in
  ensure s.cur_lo m m;
  ensure s.cur_up m m;
  for i = 0 to m - 1 do
    let off = i * m in
    Array.fill s.cur_lo.c off m 0.0;
    Array.fill s.cur_up.c off m 0.0;
    s.cur_lo.c.(off + i) <- 1.0;
    s.cur_up.c.(off + i) <- 1.0;
    s.cur_lo.k.(i) <- 0.0;
    s.cur_up.k.(i) <- 0.0;
    s.cur_lo.e.(i) <- 0.0;
    s.cur_up.e.(i) <- 0.0
  done;
  let n = ref m in
  Array.iteri
    (fun li l ->
      Span.with_ "nnabs.layer"
        ~attrs:
          [
            ("layer", Nncs_obs.Trace.Int li);
            ("neurons", Int (Mat.rows l.Net.weights));
          ]
        (fun () ->
          let rows = Mat.rows l.Net.weights in
          affine_rows ~xmag l.Net.weights l.Net.biases m s.cur_lo s.cur_up
            s.nxt_lo s.nxt_up;
          (match l.Net.activation with
          | Nncs_nn.Activation.Linear -> ()
          | Nncs_nn.Activation.Relu ->
              (* aggregate locally, publish once per layer: the per-neuron
                 hot loop never touches the shared atomics *)
              let unstable = ref 0 in
              relu_rows ~unstable ~xmag blo bhi s.nxt_lo s.nxt_up rows m;
              Metrics.add m_neurons rows;
              Metrics.add m_unstable !unstable);
          swap s;
          n := rows))
    net.Net.layers;
  (s, !n, m)

let propagate net box =
  let blo = B.lo box and bhi = B.hi box in
  let s, n, m = propagate_planes net box blo bhi in
  B.of_intervals
    (Array.init n (fun i ->
         let lo = eval_lower_row blo bhi s.cur_lo i m
         and hi = eval_upper_row blo bhi s.cur_up i m in
         if lo <= hi then I.make lo hi else inverted_hull lo hi))

let output_bounds net box =
  let s, n, m = propagate_planes net box (B.lo box) (B.hi box) in
  Array.init n (fun i ->
      let off = i * m in
      ( Array.sub s.cur_lo.c off m,
        s.cur_lo.k.(i),
        Array.sub s.cur_up.c off m,
        s.cur_up.k.(i) ))

(* Narrow test hooks: the NaN-poisoned-plane regression needs a plane
   whose *coefficients* are poisoned while the constant and error lanes
   stay finite — unreachable through [propagate] without contriving a
   whole network — and the inverted-hull regression needs the raw
   widening helper; the rounding tests pin the inlined successor and
   predecessor to [Rounding]'s. *)
module Internal = struct
  let row_bounds box ~c ~k ~e =
    let m = Array.length c in
    if B.dim box <> m then
      invalid_arg "Symbolic_prop.Internal.row_bounds: dimension mismatch";
    let p = { c = Array.copy c; k = [| k |]; e = [| e |] } in
    let blo = B.lo box and bhi = B.hi box in
    (eval_lower_row blo bhi p 0 m, eval_upper_row blo bhi p 0 m)

  let next_up = next_up
  let next_down = next_down
end
