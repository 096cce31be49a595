(** Number-theoretic transform (radix-2 Cooley–Tukey) over an
    FFT-friendly prime field — the replacement for the paper's FLINT FFT,
    and what makes SNIP proving cost O(M log M) (Table 2).

    The size-n transform maps coefficients to evaluations at the powers
    (ω⁰ … ω^{n−1}) of a primitive n-th root of unity; the inverse
    transform interpolates. n must be a power of two with
    log₂ n ≤ [F.two_adicity]. *)

module Make (F : Prio_field.Field_intf.S) : sig
  module Plan : module type of Ntt_plan.Make (F)
  (** The cached-plan layer this instantiation executes against. *)

  val is_pow2 : int -> bool

  val log2 : int -> int
  (** ⌈log₂ n⌉ for n ≥ 1. *)

  val next_pow2 : int -> int
  (** Smallest power of two ≥ max(1, n). *)

  val transform_with_root : F.t array -> F.t -> unit
  (** In-place transform with an explicit primitive n-th root. *)

  val ntt : F.t array -> F.t array
  (** Coefficients → evaluations on the root grid (fresh array). *)

  val intt : F.t array -> F.t array
  (** Evaluations on the root grid → coefficients (fresh array). *)

  val mul : F.t array -> F.t array -> F.t array
  (** Polynomial product via NTT; output has exact length
      |p| + |q| − 1. *)

  val double_grid_product : F.t array -> F.t array -> F.t array
  (** [double_grid_product u v]: for f and g of degree < n with values [u]
      and [v] on the n-grid, the values of f·g on the 2n-grid — the even
      points are u_t·v_t, the odd ones come from one size-n transform of
      each polynomial on the coset ω₂ₙ·⟨ω_n⟩. Equals [ntt] of the
      zero-padded [mul (intt u) (intt v)].
      @raise Invalid_argument if the lengths differ or are not a power of
      two the field's two-adicity can double. *)

  val ntt_uncached : F.t array -> F.t array
  val intt_uncached : F.t array -> F.t array

  val mul_uncached : F.t array -> F.t array -> F.t array
  (** Reference implementations that re-derive every root with [F.pow]
      on each call; must agree exactly with the plan-cached paths. *)
end
