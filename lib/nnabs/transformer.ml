module B = Nncs_interval.Box

type domain = Interval | Symbolic | Affine

let domain_of_string = function
  | "interval" -> Interval
  | "symbolic" -> Symbolic
  | "affine" -> Affine
  | s -> invalid_arg (Printf.sprintf "Transformer.domain_of_string: unknown %S" s)

let domain_to_string = function
  | Interval -> "interval"
  | Symbolic -> "symbolic"
  | Affine -> "affine"

let propagate = function
  | Interval -> Interval_prop.propagate
  | Symbolic -> Symbolic_prop.propagate
  | Affine -> Affine_prop.propagate

let propagate_split domain ~splits net box =
  if splits < 0 then invalid_arg "Transformer.propagate_split: negative splits";
  let rec go depth box =
    if depth = 0 then propagate domain net box
    else
      let l, r = B.bisect_widest box in
      B.hull (go (depth - 1) l) (go (depth - 1) r)
  in
  go splits box

let meet_all domains net box =
  match domains with
  | [] -> invalid_arg "Transformer.meet_all: no domains"
  | d :: rest ->
      List.fold_left
        (fun acc d ->
          match B.meet acc (propagate d net box) with
          | Some m -> m
          | None -> acc)
        (propagate d net box) rest
