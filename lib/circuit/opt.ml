(** Semantics-preserving optimization of Valid() circuits.

    In the SNIP cost model (paper, Appendix C) proof length, upload bytes
    and verification time all scale with the number of [Mul] gates, and
    affine gates are free — so the passes here aim squarely at mul gates
    and let the affine structure carry everything it can:

    - {b constant folding}: wires that are [Known] on the
      {!Analysis.constants} lattice become [Const] gates; vacuous
      assert-zeros (provably-zero wires) are dropped, provably-nonzero
      ones are kept so an always-rejecting circuit stays rejecting.
    - {b mul canonicalization}: a mul with a constant operand becomes a
      [Scale] (both constant: a [Const]); commutative normalization
      orders every [Mul]/[Add] operand pair so x·y and y·x — and in
      particular both spellings of a square x·x — hash-cons to one gate.
    - {b affine flattening}: every wire's {!Analysis.affine_forms} form
      is rematerialized as one canonical scale/add chain per distinct
      linear combination, which collapses Add/Sub/Scale/Add_const trees,
      deduplicates assert-zero wires that assert the same combination,
      and drops affine wires nothing reads.
    - {b CSE}: hash-consing of structurally-equal gates, plus
      deduplication of repeated assert-zero wires.
    - {b dead-gate elimination}: backward liveness from the assert-zero
      roots; dead gates — including dead [Mul]s and unread [Input]
      wires — are removed (the input {e vector} layout is unchanged;
      only the internal wire DAG shrinks).

    The pipeline iterates to a structural fixpoint. Semantic preservation
    is enforced two ways: {!Circuit.validate} runs after every pass
    (malformed output is a hard error), and the test suite asserts
    optimized ≡ unoptimized accept/reject behaviour on random and valid
    inputs for every AFE over every field.

    Preserved invariants: [num_inputs], the relative (topological) order
    of the surviving mul gates, and the predicate
    [valid c ~inputs = valid (optimize c) ~inputs] for all inputs. *)

module Make (F : Prio_field.Field_intf.S) = struct
  module C = Circuit.Make (F)
  module A = Analysis.Make (F)

  (* ------------------------------------------------------------------ *)
  (* Rebuilder: emit-with-hash-consing into a fresh circuit.             *)
  (* ------------------------------------------------------------------ *)

  module Key = struct
    type t = C.gate

    let equal (a : t) (b : t) =
      match (a, b) with
      | C.Input i, C.Input j -> i = j
      | C.Const u, C.Const v -> F.equal u v
      | C.Add (x, y), C.Add (x', y') | C.Sub (x, y), C.Sub (x', y') ->
        x = x' && y = y'
      | C.Mul (x, y), C.Mul (x', y') -> x = x' && y = y'
      | C.Scale (u, x), C.Scale (v, y) -> x = y && F.equal u v
      | C.Add_const (u, x), C.Add_const (v, y) -> x = y && F.equal u v
      | _ -> false

    (* Field constants are deliberately left out of the hash (F.t has no
       generic hash); gates differing only in the constant share a bucket
       and are separated by [equal]. *)
    let hash = function
      | C.Input i -> Hashtbl.hash (0, i)
      | C.Const _ -> Hashtbl.hash 1
      | C.Add (x, y) -> Hashtbl.hash (2, x, y)
      | C.Sub (x, y) -> Hashtbl.hash (3, x, y)
      | C.Scale (_, x) -> Hashtbl.hash (4, x)
      | C.Add_const (_, x) -> Hashtbl.hash (5, x)
      | C.Mul (x, y) -> Hashtbl.hash (6, x, y)
  end

  module Tbl = Hashtbl.Make (Key)

  type rb = {
    num_inputs : int;
    mutable gates : C.gate array;
    mutable len : int;
    cons : C.wire Tbl.t;
    mutable zrev : C.wire list;
    zseen : (C.wire, unit) Hashtbl.t;
  }

  let rb_create ~num_inputs =
    {
      num_inputs;
      gates = [||];
      len = 0;
      cons = Tbl.create 64;
      zrev = [];
      zseen = Hashtbl.create 16;
    }

  let rb_push rb g =
    if rb.len = Array.length rb.gates then begin
      let bigger = Array.make (Stdlib.max 16 (2 * rb.len)) (C.Const F.zero) in
      Array.blit rb.gates 0 bigger 0 rb.len;
      rb.gates <- bigger
    end;
    rb.gates.(rb.len) <- g;
    rb.len <- rb.len + 1;
    rb.len - 1

  (* Commutative normalization: Add and Mul operands in ascending wire
     order, so both operand orders (and both spellings of a square) are
     one gate to the hash-conser. *)
  let norm = function
    | C.Add (x, y) when y < x -> C.Add (y, x)
    | C.Mul (x, y) when y < x -> C.Mul (y, x)
    | g -> g

  let emit rb g =
    let g = norm g in
    match Tbl.find_opt rb.cons g with
    | Some w -> w
    | None ->
      let w = rb_push rb g in
      Tbl.add rb.cons g w;
      w

  let emit_assert rb w =
    if not (Hashtbl.mem rb.zseen w) then begin
      Hashtbl.add rb.zseen w ();
      rb.zrev <- w :: rb.zrev
    end

  let rb_build rb : C.t =
    let gates = Array.sub rb.gates 0 rb.len in
    let muls = ref [] in
    Array.iteri
      (fun w g -> match g with C.Mul (x, y) -> muls := (w, x, y) :: !muls | _ -> ())
      gates;
    {
      C.num_inputs = rb.num_inputs;
      gates;
      assert_zero = Array.of_list (List.rev rb.zrev);
      mul_gates = Array.of_list (List.rev !muls);
    }

  let remap env = function
    | (C.Input _ | C.Const _) as g -> g
    | C.Add (x, y) -> C.Add (env.(x), env.(y))
    | C.Sub (x, y) -> C.Sub (env.(x), env.(y))
    | C.Scale (v, x) -> C.Scale (v, env.(x))
    | C.Add_const (v, x) -> C.Add_const (v, env.(x))
    | C.Mul (x, y) -> C.Mul (env.(x), env.(y))

  (* ------------------------------------------------------------------ *)
  (* Passes (each : C.t -> C.t)                                          *)
  (* ------------------------------------------------------------------ *)

  (** Hash-consing rebuild: structurally equal (commutative-normalized)
      gates collapse to one wire; repeated assert-zeros collapse to
      one. *)
  let cse (c : C.t) : C.t =
    let rb = rb_create ~num_inputs:c.C.num_inputs in
    let env = Array.make (C.num_wires c) (-1) in
    Array.iteri (fun w g -> env.(w) <- emit rb (remap env g)) c.C.gates;
    Array.iter (fun z -> emit_assert rb env.(z)) c.C.assert_zero;
    rb_build rb

  (** Fold [Known] wires to [Const] gates, simplify the identity cases
      (1·x, x+0, x−0), and drop assert-zeros on provably-zero wires. *)
  let constant_fold (c : C.t) : C.t =
    let consts = A.constants c in
    let rb = rb_create ~num_inputs:c.C.num_inputs in
    let env = Array.make (C.num_wires c) (-1) in
    let known_zero w =
      match consts.(w) with A.Known v -> F.is_zero v | A.Unknown -> false
    in
    Array.iteri
      (fun w g ->
        env.(w) <-
          (match (g, consts.(w)) with
          | C.Input _, _ -> emit rb g
          | _, A.Known v -> emit rb (C.Const v)
          | C.Scale (v, x), _ when F.is_one v -> env.(x)
          | C.Add_const (v, x), _ when F.is_zero v -> env.(x)
          | C.Add (x, y), _ when known_zero x -> env.(y)
          | C.Add (x, y), _ when known_zero y -> env.(x)
          | C.Sub (x, y), _ when known_zero y -> env.(x)
          | g, _ -> emit rb (remap env g)))
      c.C.gates;
    Array.iter
      (fun z -> if not (known_zero z) then emit_assert rb env.(z))
      c.C.assert_zero;
    rb_build rb

  (** Muls with a constant operand become [Scale] gates (free in the SNIP
      cost model); with two constant operands, a [Const]. *)
  let mul_canonicalize (c : C.t) : C.t =
    let consts = A.constants c in
    let rb = rb_create ~num_inputs:c.C.num_inputs in
    let env = Array.make (C.num_wires c) (-1) in
    Array.iteri
      (fun w g ->
        env.(w) <-
          (match g with
          | C.Mul (x, y) -> (
            match (consts.(x), consts.(y)) with
            | A.Known a, A.Known b -> emit rb (C.Const (F.mul a b))
            | A.Known a, A.Unknown -> emit rb (C.Scale (a, env.(y)))
            | A.Unknown, A.Known b -> emit rb (C.Scale (b, env.(x)))
            | A.Unknown, A.Unknown -> emit rb (C.Mul (env.(x), env.(y))))
          | g -> emit rb (remap env g)))
      c.C.gates;
    Array.iter (fun z -> emit_assert rb env.(z)) c.C.assert_zero;
    rb_build rb

  (** Rebuild the circuit from its affine forms: only genuine mul gates
      survive as [Mul]; every affine value that is actually read (a mul
      operand or an assert-zero) is rematerialized as one canonical
      scale/add chain per distinct linear combination. Collapses affine
      trees, shares equal combinations, deduplicates equal assert-zeros
      and drops unread affine intermediates. *)
  let flatten_affine (c : C.t) : C.t =
    let forms = A.affine_forms c in
    let rb = rb_create ~num_inputs:c.C.num_inputs in
    (* Input wires first, mirroring the builder's eager layout. *)
    let input_wire =
      Array.init c.C.num_inputs (fun k -> emit rb (C.Input k))
    in
    let mul_out = Array.make (C.num_wires c) (-1) in
    let atom_wire = function
      | A.A_input k -> input_wire.(k)
      | A.A_mul w ->
        (* Topological order guarantees the mul was emitted already. *)
        assert (mul_out.(w) >= 0);
        mul_out.(w)
    in
    (* Memoized materialization keyed by the canonical form itself: equal
       linear combinations become the same wire. Forms are bucketed by a
       hash of their atom list (field coefficients have no generic hash),
       and [A.affine_equal] separates the forms within a bucket — so a
       lookup costs the form's length, not the number of forms. *)
    let memo : (int, A.affine * C.wire) Hashtbl.t = Hashtbl.create 64 in
    let atom_code = function A.A_input k -> 2 * k | A.A_mul w -> (2 * w) + 1 in
    let form_hash (f : A.affine) =
      List.fold_left (fun h (a, _) -> (31 * h) + atom_code a) 0 f.A.terms
    in
    let materialize (f : A.affine) : C.wire =
      let h = form_hash f in
      let bucket = Hashtbl.find_all memo h in
      match List.find_opt (fun (g, _) -> A.affine_equal f g) bucket with
      | Some (_, w) -> w
      | None ->
        let w =
          match f.A.terms with
          | [] -> emit rb (C.Const f.A.const)
          | t0 :: rest ->
            let term_wire (a, coeff) =
              let aw = atom_wire a in
              if F.is_one coeff then aw else emit rb (C.Scale (coeff, aw))
            in
            let s =
              List.fold_left
                (fun acc t -> emit rb (C.Add (acc, term_wire t)))
                (term_wire t0) rest
            in
            if F.is_zero f.A.const then s
            else emit rb (C.Add_const (f.A.const, s))
        in
        Hashtbl.add memo h (f, w);
        w
    in
    Array.iteri
      (fun w g ->
        match (g, forms.(w)) with
        | C.Mul (x, y), { A.const = _; terms = [ (A.A_mul w', cf) ] }
          when w' = w && F.is_one cf ->
          (* A genuine mul: materialize its operands' forms, emit it. *)
          let mx = materialize forms.(x) in
          let my = materialize forms.(y) in
          mul_out.(w) <- emit rb (C.Mul (mx, my))
        | _ -> ())
      c.C.gates;
    Array.iter (fun z -> emit_assert rb (materialize forms.(z))) c.C.assert_zero;
    rb_build rb

  (** Remove every gate no assert-zero root depends on — including dead
      [Mul] gates and unread [Input] wires (the input vector layout is
      untouched). *)
  let dead_gate_elim (c : C.t) : C.t =
    let live = A.live_wires c in
    let rb = rb_create ~num_inputs:c.C.num_inputs in
    let env = Array.make (C.num_wires c) (-1) in
    Array.iteri
      (fun w g -> if live.(w) then env.(w) <- emit rb (remap env g))
      c.C.gates;
    Array.iter (fun z -> emit_assert rb env.(z)) c.C.assert_zero;
    rb_build rb

  (* ------------------------------------------------------------------ *)
  (* Pipeline                                                            *)
  (* ------------------------------------------------------------------ *)

  let equal_structure (a : C.t) (b : C.t) =
    a.C.num_inputs = b.C.num_inputs
    && Array.length a.C.gates = Array.length b.C.gates
    && Array.for_all2 Key.equal a.C.gates b.C.gates
    && a.C.assert_zero = b.C.assert_zero

  let passes =
    [
      ("constant-fold", constant_fold);
      ("mul-canonicalize", mul_canonicalize);
      ("flatten-affine", flatten_affine);
      ("cse", cse);
      ("dead-gate-elim", dead_gate_elim);
    ]

  let check_pass ~name before after =
    (match C.validate after with
    | Ok () -> ()
    | Error m ->
      invalid_arg
        (Printf.sprintf "Circuit optimizer pass %s produced an invalid \
                         circuit: %s" name m));
    if C.num_inputs after <> C.num_inputs before then
      invalid_arg
        (Printf.sprintf "Circuit optimizer pass %s changed the input arity"
           name)

  let max_rounds = 8

  (** Run the pass pipeline to a structural fixpoint (bounded rounds;
      in practice 2–3). The input circuit is validated first, and every
      pass's output is validated — a malformed circuit in or out is an
      [Invalid_argument], never a silently wrong predicate. *)
  let optimize (c : C.t) : C.t =
    C.validate_exn ~context:"Circuit optimizer" c;
    let round c =
      List.fold_left
        (fun acc (name, pass) ->
          let r = pass acc in
          check_pass ~name acc r;
          r)
        c passes
    in
    let rec go c n =
      if n >= max_rounds then c
      else
        let c' = round c in
        if equal_structure c c' then c else go c' (n + 1)
    in
    go c 0
end
