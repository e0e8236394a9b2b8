(* The scalar symbolic-interval kernel (F#) as it ran before its loops
   were unboxed, kept verbatim as the oracle of the kernel's bitwise
   differential test (test_nnabs "kernel oracle").  Only the trace span
   and the ReLU counters are dropped; every float operation, its order
   and the NaN/infinity guards are the original ones, so
   [Symbolic_prop.propagate] / [output_bounds] must agree with
   [propagate] / [output_bounds] here bit for bit. *)

module I = Nncs_interval.Interval
module B = Nncs_interval.Box
module R = Nncs_interval.Rounding
module Mat = Nncs_linalg.Mat
module Net = Nncs_nn.Network

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

(* Concrete bounds of row [i] of a plane over the input box, outward
   rounded.

   A non-finite plane coefficient poisons the whole row: the sign tests
   below are both false for NaN (silently dropping the term — an
   unsoundly *finite* bound), and an infinite coefficient of the wrong
   sign could even drive the accumulator to the unsound side.  Bail out
   to the conservative infinity instead; the same guard maps a NaN
   accumulator (e.g. a NaN constant or error term) to infinity. *)
let eval_upper_row box p i m =
  let off = i * m in
  let acc = ref (R.add_up p.k.(i) p.e.(i)) in
  (try
     for kk = 0 to m - 1 do
       let c = p.c.(off + kk) in
       if not (Float.is_finite c) then begin
         acc := Float.infinity;
         raise Exit
       end;
       if c > 0.0 then acc := R.add_up !acc (R.mul_up c (I.hi (B.get box kk)))
       else if c < 0.0 then
         acc := R.add_up !acc (R.mul_up c (I.lo (B.get box kk)))
     done
   with Exit -> ());
  if Float.is_nan !acc then Float.infinity else !acc

let eval_lower_row box p i m =
  let off = i * m in
  let acc = ref (R.sub_down p.k.(i) p.e.(i)) in
  (try
     for kk = 0 to m - 1 do
       let c = p.c.(off + kk) in
       if not (Float.is_finite c) then begin
         acc := Float.neg_infinity;
         raise Exit
       end;
       if c > 0.0 then acc := R.add_down !acc (R.mul_down c (I.lo (B.get box kk)))
       else if c < 0.0 then
         acc := R.add_down !acc (R.mul_down c (I.hi (B.get box kk)))
     done
   with Exit -> ());
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
   exactly as an inner-product accumulation of nterms*(m+1)+1 ops. *)
let affine_rows ~xmag w b m src_lo src_up dst_lo dst_up =
  let n = Mat.rows w and cols = Mat.cols w in
  ensure dst_lo n m;
  ensure dst_up n m;
  for i = 0 to n - 1 do
    let off = i * m in
    Array.fill dst_lo.c off m 0.0;
    Array.fill dst_up.c off m 0.0;
    let bi = b.(i) in
    let up_const = ref bi and lo_const = ref bi in
    let up_abs = ref (Float.abs bi) and lo_abs = ref (Float.abs bi) in
    let up_err = ref 0.0 and lo_err = ref 0.0 in
    let nterms = ref 0 in
    for j = 0 to cols - 1 do
      let wij = Mat.get w i j in
      if (wij <> 0.0) [@lint.fp_exact "exact zero test: skips structurally-zero terms; NaN falls through conservatively"] then begin
        incr nterms;
        let su, sl = if wij > 0.0 then (src_up, src_lo) else (src_lo, src_up) in
        let joff = j * m in
        for kk = 0 to m - 1 do
          let p = wij *. su.c.(joff + kk) in
          dst_up.c.(off + kk) <- dst_up.c.(off + kk) +. p;
          up_abs := !up_abs +. Float.abs p
        done;
        let pc = wij *. su.k.(j) in
        up_const := !up_const +. pc;
        up_abs := !up_abs +. Float.abs pc;
        up_err := R.add_up !up_err (R.mul_up (Float.abs wij) su.e.(j));
        for kk = 0 to m - 1 do
          let p = wij *. sl.c.(joff + kk) in
          dst_lo.c.(off + kk) <- dst_lo.c.(off + kk) +. p;
          lo_abs := !lo_abs +. Float.abs p
        done;
        let pc = wij *. sl.k.(j) in
        lo_const := !lo_const +. pc;
        lo_abs := !lo_abs +. Float.abs pc;
        lo_err := R.add_up !lo_err (R.mul_up (Float.abs wij) sl.e.(j))
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
      dst_up.e.(i) <- R.add_up !up_err (accumulation_error nops (!up_abs *. xmag));
      dst_lo.e.(i) <- R.add_up !lo_err (accumulation_error nops (!lo_abs *. xmag))
    end
  done

(* The chord slope u / (u - l) for an unstable node, as an interval to
   bound the float division error. *)
let chord_slope l u =
  I.div (I.of_float u) (I.sub (I.of_float u) (I.of_float l))

(* Row i scaled in place by [lam] with [bias] added: the single-term
   affine combination, with its rounding folded into the error term. *)
let scale_row ~xmag p i m lam bias =
  let off = i * m in
  let absacc = ref (Float.abs bias) in
  for kk = 0 to m - 1 do
    let pr = lam *. p.c.(off + kk) in
    p.c.(off + kk) <- pr;
    absacc := !absacc +. Float.abs pr
  done;
  let pc = lam *. p.k.(i) in
  p.k.(i) <- bias +. pc;
  absacc := !absacc +. Float.abs pc;
  let err = R.add_up 0.0 (R.mul_up (Float.abs lam) p.e.(i)) in
  p.e.(i) <- R.add_up err (accumulation_error (m + 2) (!absacc *. xmag))

(* ReLU relaxation of a whole layer in place (ReluVal/Neurify rules);
   counts straddling neurons into [unstable].  [row0] offsets the plane
   rows: the batched kernel stores leaf [l]'s layer as rows
   [l*n .. l*n+n-1] of one wide plane and relaxes each leaf block with
   this same code, so the per-leaf float-op sequence is identical to the
   scalar path's. *)
let relu_rows ~unstable ~xmag ?(row0 = 0) box p_lo p_up n m =
  for i0 = 0 to n - 1 do
    let i = row0 + i0 in
    let l_lo = eval_lower_row box p_lo i m
    and u_up = eval_upper_row box p_up i m in
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
      let l_up = eval_lower_row box p_up i m in
      if l_up >= 0.0 then ()
      else begin
        let lam_iv = chord_slope l_up u_up in
        let lam = I.mid lam_iv in
        (* bias -lam*l_up, slope error |lam' - lam| * (u - l) folded in *)
        scale_row ~xmag p_up i m lam (-.lam *. l_up);
        let slope_slack = R.mul_up (I.width lam_iv) (R.sub_up u_up l_up) in
        let bias_slack =
          (* -lam*l_up computed in float: one mul rounding *)
          R.mul_up 4.0 (R.mul_up ulp_unit (Float.abs (lam *. l_up)))
        in
        p_up.e.(i) <- R.add_up p_up.e.(i) (R.add_up slope_slack bias_slack)
      end;
      (* lower: relu(v) >= lam * v for v in [l, u], lam = u/(u-l) in [0,1],
         applied to the lower equation with its own concrete bounds *)
      let u_lo = eval_upper_row box p_lo i m in
      if u_lo <= 0.0 then zero_row p_lo i m
      else begin
        let l = l_lo and u = u_lo in
        let lam_iv = chord_slope l u in
        let lam = I.mid lam_iv in
        scale_row ~xmag p_lo i m lam 0.0;
        let slope_slack =
          R.mul_up (I.width lam_iv) (Float.max (Float.abs l) (Float.abs u))
        in
        p_lo.e.(i) <- R.add_up p_lo.e.(i) slope_slack
      end
    end
  done

(* Run the whole network through the domain's scratch planes; afterwards
   [cur_lo]/[cur_up] hold the output layer's bounds.  Callers must
   materialise what they need before the next propagation reuses the
   buffers. *)
let propagate_planes net box =
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
  Array.iter
    (fun l ->
      let rows = Mat.rows l.Net.weights in
      affine_rows ~xmag l.Net.weights l.Net.biases m s.cur_lo s.cur_up
        s.nxt_lo s.nxt_up;
      (match l.Net.activation with
      | Nncs_nn.Activation.Linear -> ()
      | Nncs_nn.Activation.Relu ->
          let unstable = ref 0 in
          relu_rows ~unstable ~xmag box s.nxt_lo s.nxt_up rows m);
      swap s;
      n := rows)
    net.Net.layers;
  (s, !n, m)

let propagate net box =
  let s, n, m = propagate_planes net box in
  B.of_intervals
    (Array.init n (fun i ->
         let lo = eval_lower_row box s.cur_lo i m
         and hi = eval_upper_row box s.cur_up i m in
         if lo <= hi then I.make lo hi else inverted_hull lo hi))

let output_bounds net box =
  let s, n, m = propagate_planes net box in
  Array.init n (fun i ->
      let off = i * m in
      ( Array.sub s.cur_lo.c off m,
        s.cur_lo.k.(i),
        Array.sub s.cur_up.c off m,
        s.cur_up.k.(i) ))
