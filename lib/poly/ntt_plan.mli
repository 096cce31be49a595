(** Cached NTT execution plans: per-(field, size) twiddle power tables,
    bit-reversal permutation tables, and the n⁻¹ constant, computed once
    and safe to share across domains (plans are immutable; the cache is
    mutex-guarded). Executing a transform against a plan performs no
    [F.pow] calls at all. *)

module Make (F : Prio_field.Field_intf.S) : sig
  type t

  val get : int -> t
  (** Cached plan for size n. Raises [Invalid_argument] if n is not a
      power of two or exceeds the field's two-adicity. *)

  val size : t -> int

  val omega_pow : t -> int -> F.t
  (** [omega_pow t i] is ω^{i mod n} for the plan's primitive root ω;
      accepts any integer index. *)

  val n_inv : t -> F.t

  val transform : t -> ?inverse:bool -> F.t array -> unit
  (** In-place radix-2 transform of an array whose length equals
      [size t]. [~inverse:true] runs inverse butterflies without the
      1/n scaling; multiply by {!n_inv} to complete interpolation. *)
end
