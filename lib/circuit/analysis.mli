(** Static analyses over Valid() circuits: gate census, use/def counts,
    backward liveness from the assert-zero roots, a constant-propagation
    lattice, and an exact affine-form abstraction (each wire as a sparse
    linear combination of inputs and mul-gate outputs). {!Opt} consumes
    these to rewrite circuits; the census also feeds the [circuit-budget]
    lint rule and the reporting tools. All analyses are linear in the
    number of wires. *)

module Make (F : Prio_field.Field_intf.S) : sig
  module C : module type of Circuit.Make (F)

  type census = {
    inputs : int;
    wires : int;
    muls : int;
    asserts : int;
  }

  val census : C.t -> census

  val live_wires : C.t -> bool array
  (** Is each wire reachable backwards from some assert-zero root? *)

  (** {1 Constant propagation} *)

  type const = Unknown | Known of F.t
      (** [Known v]: the wire is [v] on every input vector. *)

  val constants : C.t -> const array

  (** {1 Affine forms} *)

  type atom = A_input of int | A_mul of C.wire
      (** Inputs and (genuine) mul-gate outputs — the opaque values
          affine gates combine. *)

  val atom_compare : atom -> atom -> int
  val atom_equal : atom -> atom -> bool

  type affine = { const : F.t; terms : (atom * F.t) list }
      (** const + Σ coeff·atom; terms sorted by atom, no zero
          coefficients — canonical, so structural equality is semantic
          equality. *)

  val affine_const : F.t -> affine
  val affine_atom : atom -> affine
  val as_const : affine -> F.t option
  val affine_add : affine -> affine -> affine
  val affine_sub : affine -> affine -> affine
  val affine_scale : F.t -> affine -> affine
  val affine_add_const : F.t -> affine -> affine
  val affine_equal : affine -> affine -> bool

  val affine_forms : C.t -> affine array
  (** The affine form of every wire. Mul gates with a constant operand
      are flattened; opaque muls appear as their own [A_mul] atom. *)
end
