(** The plant's right-hand side compiled into an incremental Taylor
    tape.

    A tape is a hash-consed DAG of the expressions of an ODE system (and
    of their state Jacobian, for the Loehner integrator), built once per
    {!Ode.system} by {!Ode.make}.  Identical subterms share one node:
    constants are keyed by their float bits, and [Sin a] / [Cos a] of
    one argument share a single sin/cos recurrence.

    [solution] computes the interval Taylor coefficients of the ODE
    solution with the recurrence [z^(j+1) = f(z)^(j) / (j+1)].  At
    iteration [j] it computes coefficient [j] of every node exactly once,
    from coefficients [0..j] of its operands, which are final by then.
    This costs O(K^2) per node for order K.

    {b Float-op order contract.}  Every coefficient is computed with the
    same interval operations, on the same operands and in the same order,
    as the whole-series jet arithmetic it replaces (evaluating the whole
    right-hand side at full order K for each j).  The results are
    therefore bit-identical, and the tape raises exactly when that
    evaluator does, with the same exception: every such check
    (a divisor or a square root argument containing 0, a negative square
    root argument, a NaN constant) depends only on coefficient 0, which
    is computed at iteration 0 in the evaluator's order of first visit.

    {b Assist-free arithmetic.}  The work space is two flat float
    arrays, the lower and the upper bounds of every coefficient, and the
    interval operations run on them through local helpers that never
    hand the FPU a zero or subnormal operand whose result they know
    exactly (DESIGN.md §20).  The helpers return the FPU's bits, up to
    the sign of a zero that is nudged outward at once, so the contract
    above holds unchanged.

    A tape holds no mutable state; each call allocates its own work
    space, so one tape can be run from several domains at once. *)

type t

val compile : dim:int -> Expr.t array -> jacobian:Expr.t array array -> t
(** [compile ~dim rhs ~jacobian] compiles the [dim] right-hand sides and
    the [dim x dim] Jacobian entries [jacobian.(i).(j) = d rhs_i / d s_j].
    Raises [Invalid_argument] on a negative [Pow] exponent or on arrays
    of the wrong size. *)

val rhs_nodes : t -> int
(** Number of nodes the right-hand sides need (a sin/cos pair counts
    twice); the Jacobian-only nodes come after them and are skipped by
    {!solution}. *)

val solution :
  t ->
  order:int ->
  time:Nncs_interval.Interval.t ->
  state:Nncs_interval.Box.t ->
  inputs:Nncs_interval.Box.t ->
  Nncs_interval.Interval.t array array
(** [solution tape ~order:k ~time ~state ~inputs] returns, for each state
    dimension, enclosures of the Taylor coefficients [0..k] of the ODE
    solution through [state] at [time].  Commands are constant in time.
    [k = 0] returns the state itself. *)

val solution_jacobian :
  t ->
  order:int ->
  time:Nncs_interval.Interval.t ->
  state:Nncs_interval.Box.t ->
  inputs:Nncs_interval.Box.t ->
  Nncs_interval.Interval.t array array
  * Nncs_interval.Interval.t array array array
(** [(z, a)]: [z] as {!solution}, and [a.(i).(j)] the Taylor series of
    the Jacobian entry [d rhs_i / d s_j] along the solution, valid in
    coefficients [0..k-1] (the ones the variational recurrence uses). *)

type coeffs
(** Taylor coefficients [0..k] of the solution, kept in flat lo/hi
    float planes. *)

val coeffs :
  t ->
  order:int ->
  time:Nncs_interval.Interval.t ->
  state:Nncs_interval.Box.t ->
  inputs:Nncs_interval.Box.t ->
  coeffs
(** [coeffs] is {!solution} without building an interval per
    coefficient. *)

val expand :
  coeffs -> remainder:coeffs -> Nncs_interval.Interval.t -> Nncs_interval.Interval.t array
(** [expand low ~remainder d] evaluates, for each state dimension, the
    order-K Taylor polynomial whose coefficients [0..K-1] come from [low]
    (run at order K-1) and coefficient K from [remainder] (run at order
    K) at [d], in Horner form with the same operations as {!horner}.
    Raises [Invalid_argument] when [remainder] is not one order above
    [low]. *)

val horner :
  Nncs_interval.Interval.t array ->
  Nncs_interval.Interval.t ->
  Nncs_interval.Interval.t
(** [horner coeffs d] evaluates [sum_k coeffs_k * d^k] soundly. *)

(** The helpers of the assist-free arithmetic, exposed for the bitwise
    tests against the FPU.  Each equals the named float operation,
    except that [add], [sub], [mul] and [scale] may return +0 where the
    FPU returns -0. *)
module Internal : sig
  val next_up : float -> float
  (** Bitwise {!Nncs_interval.Rounding.next_up}. *)

  val next_down : float -> float
  (** Bitwise {!Nncs_interval.Rounding.next_down}. *)

  val add : float -> float -> float
  (** [x +. y]. *)

  val sub : float -> float -> float
  (** [x -. y]. *)

  val mul : float -> float -> float
  (** [x *. y], or 0 where that is NaN (Interval's endpoint product). *)

  val scale : int -> float -> float
  (** [scale j x] is [float_of_int j *. x], for [j >= 0]. *)
end
