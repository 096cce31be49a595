(** Arbitrary-precision signed integers on 31-bit limbs.

    This module replaces the Zarith/FLINT functionality that the original Prio
    implementation used: it provides exactly the operations the rest of the
    system needs — ring arithmetic, division, modular exponentiation,
    Montgomery multiplication for a fixed odd modulus, Miller–Rabin primality,
    and fixed-width byte serialization.

    Values are immutable. Internally a number is a sign and a little-endian
    magnitude in base 2^31, chosen so that all intermediate products fit in
    OCaml's 63-bit native [int]. *)

type t

val zero : t
val one : t
val two : t

(** {1 Conversions} *)

val of_int : int -> t
val to_int : t -> int option
(** [to_int x] is [Some n] when [x] fits in a native [int]. *)

val to_int_exn : t -> int
val of_string : string -> t
(** Decimal, or hexadecimal with a ["0x"] prefix; leading ['-'] allowed. *)

val to_string : t -> string
(** Decimal representation. *)

val to_string_hex : t -> string
val pp : Format.formatter -> t -> unit

val to_bytes_be : t -> int -> Bytes.t
(** [to_bytes_be x width] is the big-endian, zero-padded [width]-byte
    encoding of non-negative [x].
    @raise Invalid_argument if [x] is negative or does not fit. *)

val of_bytes_be : Bytes.t -> t
(** Inverse of {!to_bytes_be}; the result is non-negative. *)

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** {1 Ring arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t
val succ : t -> t
val pred : t -> t

(** {1 Bit operations} *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Arithmetic shift towards zero on the magnitude (sign preserved). *)

val num_bits : t -> int
(** Bits in the magnitude; [num_bits zero = 0]. *)

val testbit : t -> int -> bool
val is_even : t -> bool
val is_odd : t -> bool

(** {1 Division} *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= |r| < |b|];
    [r] has the sign of [a] (truncated division).
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val erem : t -> t -> t
(** Euclidean remainder: always in [0, |b|). *)

val divmod_small : t -> int -> t * int
(** Division by a positive single-limb integer (< 2^31). *)

(** {1 Number theory} *)

val pow : t -> int -> t
(** [pow x n] for [n >= 0]. *)

val pow_mod : t -> t -> t -> t
(** [pow_mod b e m] is [b^e mod m] for [e >= 0], [m > 0]. *)

val gcd : t -> t -> t

val invert_mod : t -> t -> t option
(** [invert_mod a m] is [Some x] with [a*x = 1 (mod m)] when gcd(a,m)=1. *)

val is_probable_prime : ?rounds:int -> t -> bool
(** Miller–Rabin with fixed small-prime bases plus [rounds] (default 40)
    pseudo-random bases derived deterministically from the candidate. *)

(** {1 Randomness}

    Random generation is parameterized by a caller-supplied source of uniform
    31-bit limbs, so this library stays independent of the crypto library. *)

val random_bits : rand_limb:(unit -> int) -> int -> t
(** Uniform in [0, 2^bits). *)

val random_below : rand_limb:(unit -> int) -> t -> t
(** Uniform in [0, bound) by rejection sampling; [bound > 0]. *)

(** {1 Montgomery arithmetic}

    A context for a fixed odd modulus enabling division-free modular
    multiplication; this is what the prime fields use under the hood. *)

module Mont : sig
  type ctx

  val create : t -> ctx
  (** @raise Invalid_argument if the modulus is not an odd number >= 3. *)

  val modulus : ctx -> t

  type elt
  (** A residue kept in Montgomery form. *)

  val to_mont : ctx -> t -> elt
  (** Input is reduced mod m first (Euclidean). *)

  val of_mont : ctx -> elt -> t
  val zero : ctx -> elt
  val one : ctx -> elt
  val add : ctx -> elt -> elt -> elt
  val sub : ctx -> elt -> elt -> elt
  val neg : ctx -> elt -> elt
  val mul : ctx -> elt -> elt -> elt
  (** Uses an unrolled kernel when the modulus has 3 limbs, else
      {!mul_generic}; both give the same canonical result. *)

  val mul_generic : ctx -> elt -> elt -> elt
  (** The n-limb CIOS loop: the only path for other limb counts, and the
      reference the 3-limb kernel is tested against. *)

  val sqr : ctx -> elt -> elt
  val pow : ctx -> elt -> t -> elt
  (** Exponent [>= 0] as a plain integer. *)

  val random : ctx -> rand_limb:(unit -> int) -> elt
  (** Uniform residue. Makes the same [rand_limb] calls and the same
      rejections as [random_below ~rand_limb (modulus ctx)], so the two
      consume a stream alike and return the same value. *)

  val of_bytes_be : ctx -> Bytes.t -> elt option
  (** Big-endian bytes of any width; [None] if the value is [>= m]. *)

  val to_bytes_be : ctx -> elt -> int -> Bytes.t
  (** The canonical residue as [width] big-endian bytes, as
      {!Bigint.to_bytes_be} writes it.
      @raise Invalid_argument if [width] bytes cannot hold every residue. *)

  val equal : elt -> elt -> bool
  val is_zero : ctx -> elt -> bool
end
