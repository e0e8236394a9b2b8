(** Dense row-major float matrices. *)

type t

val create : int -> int -> float -> t
val init : int -> int -> (int -> int -> float) -> t
val copy : t -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val row : t -> int -> Vec.t
(** Fresh copy of the row. *)

val data : t -> float array
(** The backing row-major array, entry [(i, j)] at [i * cols + j]:
    shared, not copied, so callers must only read it. *)

val identity : int -> t
val transpose : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val mul : t -> t -> t
val mul_vec : t -> Vec.t -> Vec.t
val tmul_vec : t -> Vec.t -> Vec.t
(** [tmul_vec m v] is [transpose m * v] without materialising the
    transpose. *)

val outer : Vec.t -> Vec.t -> t
val map : (float -> float) -> t -> t
val map_inplace : (float -> float) -> t -> unit
val add_inplace : t -> t -> unit
(** [add_inplace a b] sets [a <- a + b]. *)

val axpy_inplace : float -> t -> t -> unit
(** [axpy_inplace s x y] sets [y <- s*x + y]. *)

val frobenius : t -> float
val pp : Format.formatter -> t -> unit
