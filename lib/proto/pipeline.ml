(** End-to-end pipelines for the five schemes the evaluation compares
    (§6.1): No-privacy, No-robustness, Prio, Prio-MPC, and the NIZK
    baseline. The benchmark harness drives these to regenerate Figures 4–8
    and Tables 3 and 9.

    Throughput convention: the simulation executes every server's work
    serially in one process. For a symmetric s-server cluster, s machines
    would run that work in parallel, so the simulated cluster throughput for
    n submissions processed in T seconds of serial server work is n·s/T
    (and n/T for the single-server no-privacy scheme). *)

let time f =
  let t0 = Retry.now () in
  let x = f () in
  (x, Retry.now () -. t0)

module Make (F : Prio_field.Field_intf.S) = struct
  module C = Prio_circuit.Circuit.Make (F)
  module Cluster = Cluster.Make (F)
  module Client = Client.Make (F)
  module Rng = Prio_crypto.Rng
  module Trace = Prio_obs.Trace

  type prepared = {
    packets : (int * Client.packets) array;  (** (client_id, packets) *)
    client_seconds : float;  (** total client-side CPU across clients *)
    upload_bytes : int;
  }

  (** Pre-generate client submissions (the benchmarks stream these at the
      servers, as the paper's load generators did). *)
  let prepare ~rng (cluster : Cluster.t) (encodings : F.t array list) : prepared
      =
    Trace.with_span "client.prepare"
      ~attrs:[ ("clients", string_of_int (List.length encodings)) ]
    @@ fun () ->
    let mode = Cluster.client_mode cluster in
    let master = cluster.Cluster.master in
    let s = cluster.Cluster.s in
    let total_bytes = ref 0 in
    let packets, client_seconds =
      time (fun () ->
          List.mapi
            (fun client_id enc ->
              let pk =
                Client.submit ~rng ~mode ~num_servers:s ~client_id ~master enc
              in
              total_bytes := !total_bytes + pk.Client.upload_bytes;
              (client_id, pk))
            encodings)
    in
    {
      packets = Array.of_list packets;
      client_seconds;
      upload_bytes = !total_bytes;
    }

  (** Feed all prepared submissions through the cluster; returns the number
      accepted and the serial server-side seconds. *)
  let process (cluster : Cluster.t) (p : prepared) : int * float =
    Trace.with_span "server.process"
      ~attrs:[ ("submissions", string_of_int (Array.length p.packets)) ]
    @@ fun () ->
    let accepted, seconds =
      time (fun () ->
          Array.fold_left
            (fun acc (client_id, pk) ->
              if Cluster.submit cluster ~client_id pk then acc + 1 else acc)
            0 p.packets)
    in
    (accepted, seconds)

  let simulated_throughput ~num_servers ~n ~serial_seconds =
    if serial_seconds <= 0. then infinity
    else float_of_int (n * num_servers) /. serial_seconds
end

(* ---------------------------------------------------------------------- *)
(* The NIZK comparison scheme (§6: Kursawe-et-al.-style).                  *)
(* ---------------------------------------------------------------------- *)

module Nizk_pipeline = struct
  module B = Prio_bigint.Bigint
  module G = Prio_nizk.Group
  module Rng = Prio_crypto.Rng

  type submission = {
    commitments : Prio_nizk.Pedersen.commitment array;
    proofs : Prio_nizk.Bitproof.t array;
    x_shares : B.t array array;  (** [server].(coord), exponent shares mod q *)
    r_shares : B.t array array;
  }

  let split_exponent rng ~s (x : B.t) : B.t array =
    let shares = Array.make s B.zero in
    let acc = ref B.zero in
    for i = 0 to s - 2 do
      let v = G.random_exponent rng in
      shares.(i) <- v;
      acc := B.erem (B.add !acc v) G.q
    done;
    shares.(s - 1) <- B.erem (B.sub x !acc) G.q;
    shares

  (** Client work: commit to each bit, prove 0/1, share openings. *)
  let client ~rng ~(bits : int array) ~s : submission =
    let sub = Prio_nizk.Bitproof.client_encode rng bits in
    let l = Array.length bits in
    let x_shares = Array.make_matrix s l B.zero in
    let r_shares = Array.make_matrix s l B.zero in
    for j = 0 to l - 1 do
      let o = sub.Prio_nizk.Bitproof.openings.(j) in
      let xs = split_exponent rng ~s o.Prio_nizk.Pedersen.value in
      let rs = split_exponent rng ~s o.Prio_nizk.Pedersen.randomness in
      for i = 0 to s - 1 do
        x_shares.(i).(j) <- xs.(i);
        r_shares.(i).(j) <- rs.(i)
      done
    done;
    {
      commitments = sub.Prio_nizk.Bitproof.commitments;
      proofs = sub.Prio_nizk.Bitproof.proofs;
      x_shares;
      r_shares;
    }

  (** Serial server-side work for one submission across the s-server
      cluster: proof checking is load-balanced (each proof is verified by
      one server, as in Figure 5's scaling argument), while every server
      computes its consistency elements g^[x_j] · h^[r_j] for every
      coordinate and the cluster checks they multiply to the commitment. *)
  let server_process ~s (sub : submission) : bool =
    let l = Array.length sub.commitments in
    let proofs_ok = ref true in
    (* load-balanced proof verification: one server per proof *)
    for j = 0 to l - 1 do
      if not (Prio_nizk.Bitproof.verify sub.commitments.(j) sub.proofs.(j)) then
        proofs_ok := false
    done;
    (* consistency: every server exponentiates for every coordinate *)
    let consistent = ref true in
    for j = 0 to l - 1 do
      let prod = ref G.one in
      for i = 0 to s - 1 do
        let e =
          G.mul (G.exp G.g sub.x_shares.(i).(j)) (G.exp G.h sub.r_shares.(i).(j))
        in
        prod := G.mul !prod e
      done;
      if not (G.equal !prod sub.commitments.(j)) then consistent := false
    done;
    !proofs_ok && !consistent

  (** Upload: commitments + proofs + per-server opening shares. *)
  let upload_bytes ~s ~l =
    (l * G.elt_bytes_len)
    + (l * Prio_nizk.Bitproof.proof_bytes)
    + (s * l * 2 * 32)

  (** Per-server published bytes per submission: one consistency group
      element per coordinate — the Θ(L) line of Figure 6. *)
  let per_server_bytes ~l = l * G.elt_bytes_len
end
