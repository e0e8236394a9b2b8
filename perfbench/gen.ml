(* Seeded workload inputs.  The same seed always yields the same cells
   and request stream; nothing here depends on timing. *)

module Rng = Nncs_linalg.Rng
module B = Nncs_interval.Box
module I = Nncs_interval.Interval
module Symstate = Nncs.Symstate

(* The W36 ribbon partition of the paper's experiment: 36 arcs x 12
   headings, every bearing; cell [i] is heading [i mod 12] of arc
   [i / 12]. *)
let w36_arcs = 36
let w36_headings = 12

let w36 () =
  Array.of_list
    (List.map snd
       (Nncs_acasxu.Scenario.initial_cells ~arcs:w36_arcs
          ~headings:w36_headings ()))

(* W36 cell indices in ascending order of their analysis time in a
   pilot run (max_depth 1, nn_splits 0, no cache, the committed
   networks).  Cells below rank 216 were proved at depth 0 in tens of
   milliseconds; the rest refine and take seconds.  Sampling one cell
   per rank stratum keeps the cost of every seed's sample close to the
   others', so run-to-run spread measures the program, not the draw. *)
let w36_by_cost =
  [|
     314; 346; 315; 335; 336; 301; 321; 331; 332; 333; 337; 324; 334; 312; 323; 326; 347; 300;
     313; 320; 359; 316; 310; 311; 325; 322; 327; 288; 338; 309; 345; 317; 344; 303; 407; 276;
     298; 319; 383; 349; 252; 240; 277; 395; 275; 264; 357; 372; 358; 360; 370; 302; 348; 318;
     371; 290; 299; 287; 308; 384; 289; 304; 339; 382; 406; 253; 381; 350; 263; 343; 265; 266;
     204; 394; 216; 430; 361; 342; 419; 340; 274; 11; 278; 431; 297; 356; 229; 286; 369; 254;
     373; 291; 192; 217; 241; 405; 279; 351; 380; 306; 205; 242; 418; 251; 228; 305; 429; 396;
     267; 230; 307; 341; 280; 393; 330; 404; 328; 243; 23; 408; 262; 362; 392; 193; 417; 355;
     10; 206; 367; 296; 218; 268; 292; 285; 239; 428; 379; 169; 194; 255; 35; 368; 231; 157;
     391; 170; 22; 281; 195; 427; 34; 244; 168; 158; 71; 70; 374; 385; 180; 416; 403; 156;
     46; 47; 21; 68; 352; 69; 83; 366; 81; 207; 269; 8; 354; 293; 196; 378; 82; 45;
     219; 220; 426; 171; 59; 353; 58; 182; 144; 363; 295; 415; 402; 232; 273; 57; 108; 181;
     209; 145; 245; 132; 256; 390; 7; 197; 208; 210; 284; 294; 221; 95; 96; 184; 183; 120;
     107; 397; 414; 257; 233; 6; 250; 94; 9; 119; 283; 425; 364; 222; 227; 375; 261; 420;
     329; 282; 365; 377; 272; 421; 386; 399; 64; 398; 270; 127; 125; 76; 401; 410; 20; 389;
     113; 133; 413; 409; 90; 376; 63; 80; 33; 114; 388; 100; 101; 128; 106; 121; 102; 249;
     65; 423; 138; 115; 411; 151; 248; 109; 93; 260; 77; 150; 89; 422; 88; 146; 126; 400;
     246; 238; 152; 0; 139; 19; 131; 237; 75; 226; 387; 62; 153; 271; 225; 258; 215; 87;
     259; 165; 234; 140; 224; 236; 49; 166; 50; 18; 154; 74; 73; 247; 198; 51; 5; 134;
     85; 92; 1; 31; 164; 61; 176; 32; 424; 105; 52; 155; 141; 172; 72; 112; 412; 142;
     103; 223; 163; 48; 188; 185; 122; 39; 129; 38; 84; 143; 167; 118; 40; 178; 235; 37;
     99; 60; 130; 212; 175; 189; 97; 36; 86; 211; 15; 177; 190; 26; 2; 200; 53; 78;
     213; 116; 187; 179; 191; 137; 14; 201; 27; 199; 117; 162; 214; 25; 147; 159; 28; 24;
     66; 202; 3; 98; 110; 30; 13; 44; 17; 104; 124; 67; 16; 111; 91; 203; 12; 4;
     149; 186; 55; 136; 41; 79; 161; 54; 43; 56; 174; 135; 123; 42; 29; 173; 148; 160;
  |]

let cheap_ranks = 216

(* [k] strata of equal width over the ranks [lo, hi) of [ranking]. *)
let strata ?(ranking = w36_by_cost) ~lo ~hi k =
  Array.init k (fun i ->
      let a = lo + (i * (hi - lo) / k) and b = lo + ((i + 1) * (hi - lo) / k) in
      Array.sub ranking a (b - a))

(* Radical inverse in base 2: visiting strata in this order spreads
   cheap and costly ones evenly along a round. *)
let van_der_corput i =
  let rec go i denom acc =
    if i = 0 then acc else go (i lsr 1) (denom *. 2.0) (acc +. (float_of_int (i land 1) /. denom))
  in
  go i 2.0 0.0

(* One round: one seeded pick from every stratum of every group.  Each
   group's picks are spaced evenly along the round, strata in van der
   Corput order, so any prefix of a round keeps every group's share and
   cost range (a time-limited run stops mid-round). *)
let round rng groups =
  List.concat_map
    (fun strata ->
      let k = Array.length strata in
      let order = List.init k Fun.id in
      let order =
        List.stable_sort
          (fun a b -> Float.compare (van_der_corput a) (van_der_corput b))
          order
      in
      List.mapi
        (fun pos s ->
          let st = strata.(s) in
          ((float_of_int pos +. 0.5) /. float_of_int k, st.(Rng.int rng (Array.length st))))
        order)
    groups
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  |> List.map snd

(* The endless stream of rounds, round [i] built by [make rng i]; every
   traversal restarts from [seed]. *)
let rounds ~seed make : int Seq.t =
 fun () ->
  let rng = Rng.create seed in
  Seq.flat_map (fun i -> List.to_seq (make rng i)) (Seq.ints 0) ()

(* partition_seq: each round holds 100 cheap cells and 16 costly ones.
   With 16 of 116 cells costly, the p90 sits four cells inside the
   costly group and the p50 deep inside the cheap one.  A second pilot
   timed ranks 216 to 371 one by one: ranks below 230 still take 0.05 to
   0.2 s, ranks 230 to 236 take 0.6 to 0.9 s, ranks 237 to 329 take 0.8
   to 1.9 s, and later ones up to 2.5 s (the slowest 62 cells, up to
   6.5 s, were never sampled).  Costly cells come from the plateau
   [237, 330), so the p90 falls among costs that differ by tens of
   percent rather than on the step from 0.1 to 0.7 s. *)
let seq_costly_lo = 237
let seq_costly_hi = 330

let seq_cells ~seed =
  let groups = [ strata ~lo:0 ~hi:cheap_ranks 100; strata ~lo:seq_costly_lo ~hi:seq_costly_hi 16 ] in
  rounds ~seed (fun rng _ -> round rng groups)

(* ----- serve_mix ----- *)

type job_class = Cold | Warm | Repeat

type job = {
  cls : job_class;
  cell : int;  (** W36 cell index *)
  shift : int;  (** heading offset, in units of {!shift_rad} *)
  max_depth : int;
}

(* Cold jobs shift their cell's heading interval by a unique multiple of
   this: the boxes differ from every earlier job's, so the exact-key F#
   cache misses, while provability and cost stay those of the base
   cell. *)
let shift_rad = 1e-5

let shifted cells job =
  let st : Symstate.t = cells.(job.cell) in
  let d = float_of_int job.shift *. shift_rad in
  let psi = B.get st.box 2 in
  Symstate.make
    (B.replace st.box 2 (I.make (I.lo psi +. d) (I.hi psi +. d)))
    st.cmd

(* The universe of cold jobs' base cells, from a pilot of every cheap
   W36 cell's serve run (nn_splits 2, max_depth 1, empty cache), each in
   ascending order of that time.  Two cost plateaus: [serve_light] took
   51 to 56 ms (34 to 40 ms for the warm run at max_depth 0 on the cold
   run's cache), [serve_heavy] 79 to 82 ms (48 to 59 ms warm).  The job
   p50 falls in the middle of the light plateau and the p90 in the
   middle of the heavy one, so a few jobs slowed by the host move
   neither. *)
let serve_light =
  [| 239; 181; 408; 262; 404; 255; 392; 243; 35; 193; 367; 280; 206; 429; 180; 22; 385; 218; 330; 328; 47 |]

let serve_heavy = [| 45; 415; 352; 403; 281; 244; 170; 195; 366; 58; 144; 157; 71; 295 |]

(* Per block of ten jobs: 7 cold runs at max_depth 1 (fresh boxes, memo
   writes), 5 on light cells and 2 on heavy ones; 2 warm runs of an
   earlier cold job's cell at max_depth 0 (a new fingerprint, but every
   F# query of it was cached by the cold run, which did a superset of
   the work); and 1 exact repeat of one of the last four distinct jobs
   (a memo read).  Sorted by latency, memo reads and light warm runs
   fill about the first quarter, light cold runs (with heavy warm runs,
   which cost the same) the next 56%, and heavy cold runs the last
   20%. *)
let block = [| Cold; Cold; Cold; Cold; Cold; Cold; Cold; Warm; Warm; Repeat |]

let cold_strata =
  lazy
    (Array.append
       (strata ~ranking:serve_light ~lo:0 ~hi:(Array.length serve_light) 5)
       (strata ~ranking:serve_heavy ~lo:0 ~hi:(Array.length serve_heavy) 2))
let warm_window = 8
let repeat_window = 4

let serve_jobs ~seed : job Seq.t =
 fun () ->
  let rng = Rng.create seed in
  let shifts = ref 0 in
  let unwarmed = ref [] (* recent cold jobs, newest first *)
  and distinct = ref [] (* recent cold and warm jobs, newest first *) in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let next_block () =
    let kinds = Array.copy block in
    (* the first block has no history: its colds come first *)
    (match !distinct with [] -> () | _ :: _ -> Rng.shuffle rng kinds);
    let strata = Lazy.force cold_strata in
    let order = Array.init (Array.length strata) Fun.id in
    Rng.shuffle rng order;
    let colds = ref (Array.to_list order) in
    Array.fold_left
      (fun acc k ->
        let job =
           match k with
           | Cold ->
               let s = List.hd !colds in
               colds := List.tl !colds;
               let st = strata.(s) in
               incr shifts;
               let job =
                 { cls = Cold; cell = st.(Rng.int rng (Array.length st)); shift = !shifts; max_depth = 1 }
               in
               unwarmed := take warm_window (job :: !unwarmed);
               distinct := take repeat_window (job :: !distinct);
               job
           | Warm ->
               let c = pick !unwarmed in
               unwarmed := List.filter (fun j -> j != c) !unwarmed;
               let job = { c with cls = Warm; max_depth = 0 } in
               distinct := take repeat_window (job :: !distinct);
               job
           | Repeat -> { (pick !distinct) with cls = Repeat }
        in
        job :: acc)
      [] kinds
    |> List.rev
  in
  Seq.flat_map (fun () -> List.to_seq (next_block ())) (Seq.forever Fun.id) ()

(* Open-loop lookups: a W36 cell box and a command, uniformly drawn. *)
let lookups ~seed : (int * int) Seq.t =
 fun () ->
  let rng = Rng.create (seed lxor 0x5eed) in
  Seq.map
    (fun () -> (Rng.int rng (w36_arcs * w36_headings), Rng.int rng 5))
    (Seq.forever Fun.id) ()

(* ----- partition_par ----- *)

(* The W36 cells proved at depth 0 at nn_splits 4, in ascending order of
   their analysis time in a pilot run (one core, no cache, the committed
   networks). *)
let par_cheap_by_cost =
  [|
     320; 301; 300; 331; 347; 359; 322; 321; 337; 346; 324; 323; 336; 327; 325; 332; 326; 333;
     288; 314; 310; 312; 315; 334; 335; 313; 316; 311; 240; 370; 275; 372; 371; 303; 395; 358;
     348; 298; 302; 360; 319; 299; 11; 357; 264; 338; 349; 252; 309; 383; 344; 290; 276; 289;
     345; 407; 287; 369; 318; 317; 241; 431; 356; 277; 394; 23; 228; 419; 204; 304; 253; 381;
     361; 297; 216; 265; 263; 308; 266; 217; 350; 430; 384; 382; 10; 339; 373; 192; 393; 291;
     343; 254; 406; 286; 278; 396; 368; 418; 205; 274; 305; 307; 22; 9; 242; 229; 342; 206;
     35; 243; 362; 239; 279; 21; 417; 251; 340; 306; 392; 255; 230; 351; 267; 380; 367; 218;
     194; 34; 404; 193; 341; 405; 8; 385; 292; 296; 329; 231; 355; 285; 33; 429; 59; 416;
     20; 168; 262; 58; 328; 330; 244; 180; 195; 280; 408; 256; 219; 32; 7; 232; 374; 181;
     57; 169; 47; 391; 31; 366; 156; 428; 182; 427; 268; 207; 19; 293; 403; 144; 71; 379;
     196; 69; 68; 220; 157; 46; 184; 18; 145; 354; 6; 70; 363; 158; 352; 80; 415; 273;
     132; 221; 390; 402; 93; 45; 245; 170; 81; 94; 146; 197; 269; 378; 281; 233; 257; 295;
     95; 82; 5; 83; 426; 109; 108; 133; 183; 294; 284; 171; 208; 209; 107; 120; 121; 353;
     106; 210; 96; 414; 397; 119; 364; 250; 222; 425; 283; 44;
  |]

(* W36 cells that refine to depth 2 at nn_splits 4: in a pilot run one
   or two of their eight depth-1 children were split again and every
   leaf was proved (15 or 22 leaves).  Two strata by pilot time on one
   core: 4.3 and 5.0 s, and 5.4 and 5.8 s. *)
let par_heavy = [| [| 29; 118 |]; [| 110; 92 |] |]

let par_cheap = 80
let par_round_size = par_cheap + 1

(* partition_par: each round queues one heavy cell first, so one worker
   starts on it, then 80 cheap cells, one per cost stratum.  The cheap
   cells hold more work than the heavy one, so both workers stay busy
   and a round's time is their sum rather than the heavy cell's alone;
   heavy strata alternate between rounds. *)
let par_cells ~seed =
  let cheap =
    strata ~ranking:par_cheap_by_cost ~lo:0 ~hi:(Array.length par_cheap_by_cost) par_cheap
  in
  rounds ~seed (fun rng i ->
      let heavy = par_heavy.(i mod Array.length par_heavy) in
      heavy.(Rng.int rng (Array.length heavy)) :: round rng [ cheap ])
