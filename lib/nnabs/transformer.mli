(** Uniform interface over the network abstract transformers F#, plus an
    input-splitting refinement wrapper. *)

type domain = Interval | Symbolic | Affine

val domain_of_string : string -> domain
val domain_to_string : domain -> string

val propagate :
  domain -> Nncs_nn.Network.t -> Nncs_interval.Box.t -> Nncs_interval.Box.t
(** Sound box enclosure of the network image of the input box. *)

val propagate_split :
  domain ->
  splits:int ->
  Nncs_nn.Network.t ->
  Nncs_interval.Box.t ->
  Nncs_interval.Box.t
(** Recursively bisect the input box along its widest dimension [splits]
    times (2^splits sub-boxes), propagate each, and hull the results —
    tighter, at exponential cost in [splits]. *)

val meet_all : domain list -> Nncs_nn.Network.t -> Nncs_interval.Box.t -> Nncs_interval.Box.t
(** Intersection of the enclosures from several domains (all sound, so
    the meet is sound and at least as tight as each). *)
