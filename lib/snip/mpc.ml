(** Server-side Valid evaluation — the "Prio-MPC" variant (§4.4, App. E).

    When the Valid predicate is a server secret (e.g. a proprietary spam
    filter), the client cannot evaluate it and therefore cannot build a SNIP
    for it. Instead the client ships M Beaver multiplication triples — one
    per mul gate — plus a SNIP proving the triples well-formed, and the
    servers evaluate the circuit themselves with Beaver's protocol
    (Appendix C.2). Each mul gate costs every server one broadcast of two
    field elements, so server-to-server traffic grows as Θ(M) (Figure 6's
    Prio-MPC line), and privacy holds only against honest-but-curious
    servers. *)

module Make (F : Prio_field.Field_intf.S) = struct
  module C = Prio_circuit.Circuit.Make (F)
  module Sh = Prio_share.Share.Make (F)
  module Snip = Snip.Make (F)
  module Rng = Prio_crypto.Rng

  type triple_share = { a : F.t; b : F.t; c : F.t }

  (** Client: generate M well-formed triples, shared across s servers.
      Result is indexed [server].(gate). *)
  let gen_triples ~rng ~s ~m : triple_share array array =
    let per_server = Array.init s (fun _ -> Array.make m { a = F.zero; b = F.zero; c = F.zero }) in
    for t = 0 to m - 1 do
      let a = F.random rng and b = F.random rng in
      let c = F.mul a b in
      let a_sh = Sh.split rng ~s a and b_sh = Sh.split rng ~s b and c_sh = Sh.split rng ~s c in
      for i = 0 to s - 1 do
        per_server.(i).(t) <- { a = a_sh.(i); b = b_sh.(i); c = c_sh.(i) }
      done
    done;
    per_server

  (** The triple-validity circuit: inputs (a_1..a_M, b_1..b_M, c_1..c_M),
      asserting a_t·b_t − c_t = 0 for every t. The client proves it with an
      ordinary SNIP, which is how Prio-MPC keeps robustness against
      malicious clients. *)
  let triple_circuit ~m : C.t =
    let b = C.Builder.create ~num_inputs:(3 * m) in
    for t = 0 to m - 1 do
      let at = C.Builder.input b t
      and bt = C.Builder.input b (m + t)
      and ct = C.Builder.input b ((2 * m) + t) in
      let prod = C.Builder.mul b at bt in
      C.Builder.assert_zero b (C.Builder.sub b prod ct)
    done;
    C.Builder.build b

  type stats = {
    rounds : int;  (** communication rounds (circuit depth in mul gates) *)
    elements_broadcast_per_server : int;
        (** field elements each server broadcast during evaluation *)
  }

  (** Multi-party evaluation of [circuit] on secret-shared inputs.

      [inputs.(i)] is server i's share vector and [triples.(i)] its triple
      shares. Returns per-server wire-share arrays (summing to the true
      wire values) and communication statistics. The simulation executes
      the broadcasts by reconstructing d and e exactly as the network
      would. *)
  let eval (circuit : C.t) ~(inputs : F.t array array)
      ~(triples : triple_share array array) : F.t array array * stats =
    let s = Array.length inputs in
    if s < 2 then invalid_arg "Mpc.eval: need at least two servers";
    let m = C.num_mul_gates circuit in
    Array.iter
      (fun tr -> if Array.length tr <> m then invalid_arg "Mpc.eval: need one triple per mul gate")
      triples;
    let inv_s = F.inv (F.of_int s) in
    let nw = C.num_wires circuit in
    let wires = Array.init s (fun _ -> Array.make nw F.zero) in
    let mul_idx = ref 0 in
    let rounds = ref 0 in
    Array.iteri
      (fun w g ->
        match g with
        | C.Input k -> for i = 0 to s - 1 do wires.(i).(w) <- inputs.(i).(k) done
        | C.Const v -> for i = 0 to s - 1 do wires.(i).(w) <- F.mul v inv_s done
        | C.Add (x, y) ->
          for i = 0 to s - 1 do wires.(i).(w) <- F.add wires.(i).(x) wires.(i).(y) done
        | C.Sub (x, y) ->
          for i = 0 to s - 1 do wires.(i).(w) <- F.sub wires.(i).(x) wires.(i).(y) done
        | C.Scale (v, x) ->
          for i = 0 to s - 1 do wires.(i).(w) <- F.mul v wires.(i).(x) done
        | C.Add_const (v, x) ->
          for i = 0 to s - 1 do
            wires.(i).(w) <- F.add (F.mul v inv_s) wires.(i).(x)
          done
        | C.Mul (x, y) ->
          let t = !mul_idx in
          incr mul_idx;
          incr rounds;
          (* Beaver: broadcast d_i = [x]_i − [a]_i, e_i = [y]_i − [b]_i *)
          let d = ref F.zero and e = ref F.zero in
          for i = 0 to s - 1 do
            d := F.add !d (F.sub wires.(i).(x) triples.(i).(t).a);
            e := F.add !e (F.sub wires.(i).(y) triples.(i).(t).b)
          done;
          let d = !d and e = !e in
          for i = 0 to s - 1 do
            let tr = triples.(i).(t) in
            wires.(i).(w) <-
              F.add
                (F.add (F.mul (F.mul d e) inv_s) (F.mul d tr.b))
                (F.add (F.mul e tr.a) tr.c)
          done)
      circuit.C.gates;
    (wires, { rounds = !rounds; elements_broadcast_per_server = 2 * m })

  (** After evaluation, decide validity: servers publish shares of a random
      linear combination of the assert-zero wires (two more field elements
      of traffic counting the final sum publication). *)
  let decide ~rng (circuit : C.t) (wires : F.t array array) : bool =
    let zc =
      Array.init (Array.length circuit.C.assert_zero) (fun _ -> F.random rng)
    in
    let total = ref F.zero in
    Array.iter
      (fun w ->
        let zs = C.assert_zero_values circuit w in
        Array.iteri (fun j z -> total := F.add !total (F.mul zc.(j) z)) zs)
      wires;
    F.is_zero !total
end
