(** Static analyses over Valid() circuits.

    Everything the optimizer ({!Opt}) and the reporting tools (gate
    census, budget lint, `prio_cli circuit`) need to know about a circuit
    is computed here, on the plain wire DAG, without rewriting anything:

    - use/def counts and backward liveness from the assert-zero roots,
    - a constant-propagation lattice (is a wire the same field element on
      every input?),
    - an affine-form abstraction mapping each wire to a sparse linear
      combination of {e atoms} — input wires and mul-gate outputs — which
      is exact because every non-[Mul] gate is affine in its operands.

    All passes are linear in the number of wires. *)

module Make (F : Prio_field.Field_intf.S) = struct
  module C = Circuit.Make (F)

  (* ------------------------------------------------------------------ *)
  (* Gate census                                                         *)
  (* ------------------------------------------------------------------ *)

  type census = {
    inputs : int;
    wires : int;
    muls : int;
    asserts : int;
  }

  let census (c : C.t) =
    {
      inputs = C.num_inputs c;
      wires = C.num_wires c;
      muls = C.num_mul_gates c;
      asserts = Array.length c.C.assert_zero;
    }

  (* ------------------------------------------------------------------ *)
  (* Use/def and liveness                                                *)
  (* ------------------------------------------------------------------ *)

  (** Backward liveness from the assert-zero roots: a wire is live iff
      some assert-zero wire depends on it. One reverse sweep suffices
      because gates are topological. *)
  let live_wires (c : C.t) : bool array =
    let live = Array.make (C.num_wires c) false in
    Array.iter (fun z -> live.(z) <- true) c.C.assert_zero;
    for w = C.num_wires c - 1 downto 0 do
      if live.(w) then
        match c.C.gates.(w) with
        | C.Input _ | C.Const _ -> ()
        | C.Add (x, y) | C.Sub (x, y) | C.Mul (x, y) ->
          live.(x) <- true;
          live.(y) <- true
        | C.Scale (_, x) | C.Add_const (_, x) -> live.(x) <- true
    done;
    live

  (* ------------------------------------------------------------------ *)
  (* Constant propagation                                                *)
  (* ------------------------------------------------------------------ *)

  (** Two-point lattice per wire: [Known v] means the wire evaluates to
      [v] on {e every} input vector. Inputs are [Unknown]; the transfer
      functions are the obvious ones plus the absorbing cases
      (0·x = 0). *)
  type const = Unknown | Known of F.t

  let constants (c : C.t) : const array =
    let k = Array.make (C.num_wires c) Unknown in
    Array.iteri
      (fun w g ->
        k.(w) <-
          (match g with
          | C.Input _ -> Unknown
          | C.Const v -> Known v
          | C.Add (x, y) -> (
            match (k.(x), k.(y)) with
            | Known a, Known b -> Known (F.add a b)
            | _ -> Unknown)
          | C.Sub (x, y) -> (
            match (k.(x), k.(y)) with
            | Known a, Known b -> Known (F.sub a b)
            | _ -> Unknown)
          | C.Scale (v, x) -> (
            if F.is_zero v then Known F.zero
            else match k.(x) with Known a -> Known (F.mul v a) | _ -> Unknown)
          | C.Add_const (v, x) -> (
            match k.(x) with Known a -> Known (F.add v a) | _ -> Unknown)
          | C.Mul (x, y) -> (
            match (k.(x), k.(y)) with
            | Known a, Known b -> Known (F.mul a b)
            | (Known a, _ | _, Known a) when F.is_zero a -> Known F.zero
            | _ -> Unknown)))
      c.C.gates;
    k

  (* ------------------------------------------------------------------ *)
  (* Affine forms                                                        *)
  (* ------------------------------------------------------------------ *)

  (** The atoms of the affine abstraction: circuit inputs and the outputs
      of genuine (non-constant-operand) mul gates, identified by the mul
      gate's wire index in the analysed circuit. *)
  type atom = A_input of int | A_mul of C.wire

  let atom_compare a b =
    match (a, b) with
    | A_input i, A_input j -> Stdlib.compare (i : int) j
    | A_input _, A_mul _ -> -1
    | A_mul _, A_input _ -> 1
    | A_mul i, A_mul j -> Stdlib.compare (i : int) j

  let atom_equal a b = atom_compare a b = 0

  (** const + Σ coeff·atom, terms sorted by atom with no zero
      coefficients — a canonical form, so structural equality of forms is
      semantic equality of the affine expressions. *)
  type affine = { const : F.t; terms : (atom * F.t) list }

  let affine_const v = { const = v; terms = [] }
  let affine_atom a = { const = F.zero; terms = [ (a, F.one) ] }
  let as_const f = match f.terms with [] -> Some f.const | _ -> None

  (* Merge two sorted term lists with a coefficient combiner, dropping
     cancelled terms. *)
  let rec merge_terms f xs ys =
    match (xs, ys) with
    | [], rest -> List.filter_map (fun (a, c) -> keep a (f F.zero c)) rest
    | rest, [] -> List.filter_map (fun (a, c) -> keep a (f c F.zero)) rest
    | (ax, cx) :: xs', (ay, cy) :: ys' -> (
      match atom_compare ax ay with
      | 0 -> (
        match keep ax (f cx cy) with
        | Some t -> t :: merge_terms f xs' ys'
        | None -> merge_terms f xs' ys')
      | n when n < 0 -> cons_opt (keep ax (f cx F.zero)) (merge_terms f xs' ys)
      | _ -> cons_opt (keep ay (f F.zero cy)) (merge_terms f xs ys'))

  and keep a c = if F.is_zero c then None else Some (a, c)
  and cons_opt o rest = match o with Some t -> t :: rest | None -> rest

  let affine_add x y =
    { const = F.add x.const y.const; terms = merge_terms F.add x.terms y.terms }

  let affine_sub x y =
    { const = F.sub x.const y.const; terms = merge_terms F.sub x.terms y.terms }

  let affine_scale v x =
    if F.is_zero v then affine_const F.zero
    else
      {
        const = F.mul v x.const;
        terms = List.map (fun (a, c) -> (a, F.mul v c)) x.terms;
      }

  let affine_add_const v x = { x with const = F.add v x.const }

  let affine_equal x y =
    F.equal x.const y.const
    && List.length x.terms = List.length y.terms
    && List.for_all2
         (fun (a, c) (a', c') -> atom_equal a a' && F.equal c c')
         x.terms y.terms

  (** The affine form of every wire, over inputs and mul outputs. A mul
      gate whose operands are both non-constant is opaque — its own
      output becomes an atom; a mul with a constant operand is itself
      affine and is flattened like the rest (this is what lets {!Opt}
      turn it into a [Scale]). *)
  let affine_forms (c : C.t) : affine array =
    let forms = Array.make (C.num_wires c) (affine_const F.zero) in
    Array.iteri
      (fun w g ->
        forms.(w) <-
          (match g with
          | C.Input k -> affine_atom (A_input k)
          | C.Const v -> affine_const v
          | C.Add (x, y) -> affine_add forms.(x) forms.(y)
          | C.Sub (x, y) -> affine_sub forms.(x) forms.(y)
          | C.Scale (v, x) -> affine_scale v forms.(x)
          | C.Add_const (v, x) -> affine_add_const v forms.(x)
          | C.Mul (x, y) -> (
            match (as_const forms.(x), as_const forms.(y)) with
            | Some a, Some b -> affine_const (F.mul a b)
            | Some a, None -> affine_scale a forms.(y)
            | None, Some b -> affine_scale b forms.(x)
            | None, None -> affine_atom (A_mul w))))
      c.C.gates;
    forms
end
