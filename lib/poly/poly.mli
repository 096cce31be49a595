(** Dense univariate polynomials over a prime field: the classic O(n²)
    reference algorithms (Horner, schoolbook product, textbook Lagrange
    interpolation) that back the paper-literal SNIP path and cross-check
    the NTT fast path. Coefficient arrays are little-endian. *)

module Make (F : Prio_field.Field_intf.S) : sig
  type t = F.t array
  (** Coefficients, index i holding the coefficient of x^i; trailing
      zeros are permitted. *)

  val zero : t

  val normalize : t -> t
  (** Strip trailing zero coefficients. *)

  val degree : t -> int
  (** Degree after normalization; the zero polynomial has degree −1. *)

  val is_zero : t -> bool

  val equal : t -> t -> bool
  (** Equality modulo trailing zeros. *)

  val constant : F.t -> t

  val eval : t -> F.t -> F.t
  (** Horner evaluation. *)

  val add : t -> t -> t
  val sub : t -> t -> t
  val scale : F.t -> t -> t

  val mul_naive : t -> t -> t
  (** Schoolbook product, O(n²); see {!Ntt.Make.mul} for the fast path. *)

  val interpolate : (F.t * F.t) array -> t
  (** Lagrange interpolation through distinct points, O(n²). *)

  val batch_invert : F.t array -> F.t array
  (** Montgomery's trick: all inverses with one field inversion and
      3(n−1) multiplications. Inputs must be nonzero. *)

  val pp : Format.formatter -> t -> unit
end
