(** Semantics-preserving optimization of Valid() circuits.

    Proof length, upload bytes and verification time all scale with the
    number of [Mul] gates in the SNIP cost model (paper, Appendix C), so
    the pass pipeline here — constant folding, mul canonicalization,
    affine flattening, CSE, dead-gate elimination — exists to shed mul
    gates and wires without changing the predicate: for every input
    vector, [valid (optimize c) ~inputs = valid c ~inputs]. [num_inputs]
    and the relative order of the surviving mul gates are preserved;
    {!Circuit.validate} runs on every pass's output. See docs/CIRCUITS.md
    for the pass-by-pass description. *)

module Make (F : Prio_field.Field_intf.S) : sig
  module C : module type of Circuit.Make (F)

  (** {1 Individual passes}

      Exposed for the unit tests; each is semantics-preserving on its
      own. Normal callers use {!optimize}. *)

  val constant_fold : C.t -> C.t
  (** Fold provably-constant wires to [Const] gates; drop vacuous
      (provably-zero) assert-zeros, keep provably-nonzero ones. *)

  val mul_canonicalize : C.t -> C.t
  (** Muls with a constant operand become [Scale] gates; two constant
      operands, a [Const]. *)

  val flatten_affine : C.t -> C.t
  (** Rematerialize every read affine value from its canonical linear
      combination of inputs and mul outputs: collapses affine chains,
      shares equal combinations, dedups equal assert-zeros. *)

  val cse : C.t -> C.t
  (** Hash-cons structurally-equal gates (commutative-normalized [Add]
      and [Mul]) and repeated assert-zero wires. *)

  val dead_gate_elim : C.t -> C.t
  (** Drop every gate not backward-reachable from an assert-zero root. *)

  (** {1 Pipeline} *)

  val equal_structure : C.t -> C.t -> bool
  (** Same gates, assert-zeros and input arity (the fixpoint test). *)

  val optimize : C.t -> C.t
  (** All passes, iterated to a structural fixpoint (bounded rounds).
      @raise Invalid_argument if the input — or any pass's output — fails
      {!Circuit.validate}. *)
end
