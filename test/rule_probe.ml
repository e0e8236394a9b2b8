(* Interval, with a record of which rule of the Taylor tape's
   assist-free helpers (DESIGN.md §20) each operation's floats would
   take.  The values are Interval's own.  A copy of the tape's oracle
   built on this module (series_probe.ml, generated from
   series_oracle.ml by test/dune) shows which rules a set of test cases
   reaches: by the tape's float-op-order contract, the oracle forms the
   same interval operations on the same operands. *)

module II = Nncs_interval.Interval
include II

let hits : (string, unit) Hashtbl.t = Hashtbl.create 16
let hit rule = Hashtbl.replace hits rule ()
let reset () = Hashtbl.reset hits
let reached () = List.sort compare (List.of_seq (Hashtbl.to_seq_keys hits))

let dust x = Float.abs x < 0x1p-1022
let nonzero_dust x = dust x && not (Float.equal (Float.abs x) 0.0)

(* the branch the tape's next_up/next_down take on [x] *)
let nudge x =
  let a = Float.abs x in
  if a >= 0x1p-1019 && a <= Float.max_float then hit "1 nudge: arithmetic successor"
  else if Float.equal a 0.0 then hit "1 nudge: zero"
  else if a < 0x1p-1019 then hit "1 nudge: bit step"
  else hit "1 nudge: inf or NaN"

let sum x y =
  if (dust y && Float.abs x > 0x1p-969) || (dust x && Float.abs y > 0x1p-969) then
    hit "2 sum: absorbed"
  else if dust x && dust y then hit "3 sum: dust"

let eta_count x = Int64.to_int (Int64.bits_of_float (Float.abs x))

let product a b =
  let exact d o =
    Float.abs o >= 0x1p-1022 && Float.abs o < 0x1p20 && eta_count d < 0x1_0000_0000
  in
  if Float.equal a 0.0 || Float.equal b 0.0 then hit "4 product: zero factor"
  else if nonzero_dust a && nonzero_dust b then hit "4 product: two subnormals"
  else if (nonzero_dust a && exact a b) || (nonzero_dust b && exact b a) then
    hit "4 product: dust times normal"

let fpu_mul a b =
  let p = a *. b in
  if Float.is_nan p then 0.0 else p

let add a b =
  sum (lo a) (lo b);
  sum (hi a) (hi b);
  nudge (lo a +. lo b);
  nudge (hi a +. hi b);
  II.add a b

let sub a b =
  sum (lo a) (-.hi b);
  sum (hi a) (-.lo b);
  nudge (lo a -. hi b);
  nudge (hi a -. lo b);
  II.sub a b

let mul a b =
  let ps = [ (lo a, lo b); (lo a, hi b); (hi a, lo b); (hi a, hi b) ] in
  List.iter (fun (x, y) -> product x y) ps;
  let ps = List.map (fun (x, y) -> fpu_mul x y) ps in
  nudge (List.fold_left Float.min Float.infinity ps);
  nudge (List.fold_left Float.max Float.neg_infinity ps);
  II.mul a b

let mul_float c x =
  List.iter
    (fun v ->
      if nonzero_dust v && Float.is_integer c && c >= 0.0 && c <= 0x1p20 then
        hit "5 scale: dust";
      nudge (c *. v))
    [ lo x; hi x ];
  II.mul_float c x

let div a b =
  if contains b 0.0 then raise II.Division_by_zero_interval;
  mul a (II.inv b)
