(* Nearest-rank percentiles under the "ten samples beyond" rule: a
   percentile is reportable only when at least ten samples lie above
   its rank, so a p90 needs 100 samples and a p99 needs 1000. *)

let min_beyond = 10

(* 0-based nearest-rank index of percentile [p] (in [0, 100]) over [n]
   sorted samples *)
let rank ~n p =
  let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  max 0 (min (n - 1) (r - 1))

let reportable ~n p = n > 0 && n - 1 - rank ~n p >= min_beyond

let percentile xs p =
  match xs with
  | [] -> Float.nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      a.(rank ~n:(Array.length a) p)

let median xs = percentile xs 50.0
