(* Self time of nested spans: a span's duration minus the part of its
   interval covered by its direct children on the same domain.  The
   benchmark recomputes it from raw span intervals rather than trusting
   the program's own [self] field, so spans it records around its calls
   into a layer nest with the program's spans under one rule. *)

type span = { name : string; dom : int; ts : float; dur : float }

let of_event (e : Nncs_obs.Trace.event) =
  { name = e.name; dom = e.dom; ts = e.ts; dur = e.dur }

let stop s = s.ts +. s.dur

(* tolerance for the microsecond clock: a child may appear to start or
   end a rounding step outside its parent *)
let eps = 1e-9

let contains parent child =
  child.ts >= parent.ts -. eps && stop child <= stop parent +. eps

(* Length of the union of [ivs], each clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) ivs
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* [(span, self)] for every span.  Per domain, spans are visited in
   start order (enclosing spans first on ties); a stack of open spans
   gives each span its innermost enclosing one as parent. *)
let self_times spans =
  let by_dom = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace by_dom s.dom
        (s :: Option.value (Hashtbl.find_opt by_dom s.dom) ~default:[]))
    spans;
  Hashtbl.fold
    (fun _ dom_spans acc ->
      let ordered =
        List.sort
          (fun a b ->
            match Float.compare a.ts b.ts with
            | 0 -> Float.compare b.dur a.dur
            | c -> c)
          dom_spans
        |> Array.of_list
      in
      let n = Array.length ordered in
      let children = Array.make n [] in
      let stack = ref [] in
      Array.iteri
        (fun i s ->
          let rec unwind () =
            match !stack with
            | p :: rest when not (contains ordered.(p) s) ->
                stack := rest;
                unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with
          | p :: _ -> children.(p) <- (s.ts, stop s) :: children.(p)
          | [] -> ());
          stack := i :: !stack)
        ordered;
      let selfs =
        Array.to_list
          (Array.mapi
             (fun i s ->
               (s, s.dur -. covered ~lo:s.ts ~hi:(stop s) children.(i)))
             ordered)
      in
      selfs @ acc)
    by_dom []

type phase = { calls : int; total_s : float; self_s : float }

(* Per span name: call count, summed duration and summed self time. *)
let phases spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let p =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ calls = 0; total_s = 0.0; self_s = 0.0 }
      in
      Hashtbl.replace tbl s.name
        { calls = p.calls + 1; total_s = p.total_s +. s.dur; self_s = p.self_s +. self })
    (self_times spans);
  tbl

let phase tbl name =
  Option.value (Hashtbl.find_opt tbl name)
    ~default:{ calls = 0; total_s = 0.0; self_s = 0.0 }

(* The span name with the largest summed self time among those [keep]
   accepts. *)
let largest ?(keep = fun _ -> true) tbl =
  Hashtbl.fold
    (fun name p acc ->
      match acc with
      | _ when not (keep name) -> acc
      | Some (_, best) when best >= p.self_s -> acc
      | _ -> Some (name, p.self_s))
    tbl None
  |> Option.map fst
