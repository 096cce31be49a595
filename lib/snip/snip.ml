(** Secret-shared non-interactive proofs (SNIPs) — the paper's §4.

    A client holding x proves to s servers, each holding an additive share
    [x]_i, that Valid(x) holds, where Valid is an arithmetic circuit with M
    multiplication gates and a set of assert-zero wires.

    Protocol recap:
    - The client evaluates Valid(x) and collects, for each mul gate t, the
      values u_t and v_t on its input wires. It places them on a
      root-of-unity grid (slot t ↦ ω^t, with a uniformly random value in
      slot 0 for zero-knowledge), interpolates polynomials f and g of degree
      < N (N = 2^⌈log(M+1)⌉) via inverse NTT, and computes h = f·g.
    - The client ships, secret-shared: f(0), g(0), h in point-value form on
      the 2N-grid (Appendix I), and a Beaver multiplication triple
      (a, b, c = a·b).
    - Each server re-derives shares of every wire value by walking the
      circuit on its input share, substituting each mul-gate output with its
      share of h(ω^t); affine gates act on shares locally (§4.2 step 2).
    - The servers run the randomized polynomial identity test on
      P(t) = t·(f(t)·g(t) − h(t)) at a batch-fixed secret point r, using the
      client's Beaver triple for the single secret-shared multiplication
      (§4.2 steps 3a/3b), and simultaneously check a random linear
      combination of the assert-zero wires (Appendix I circuit-AND).

    Soundness error: at most (2N + |assert-zero| ) / |F| per run — the
    identity test degree bound plus the linear-combination test.

    Server-to-server traffic per submission: each server reveals the Beaver
    openings (d_i, e_i) and the verdict pair (σ_i, ζ_i) — four field
    elements, independent of both L and M (Table 2, Figure 6). *)

module Make (F : Prio_field.Field_intf.S) = struct
  module C = Prio_circuit.Circuit.Make (F)
  module Ntt = Prio_poly.Ntt.Make (F)
  module RE = Prio_poly.Roots_eval.Make (F)
  module Sh = Prio_share.Share.Make (F)
  module Rng = Prio_crypto.Rng
  module Trace = Prio_obs.Trace

  type proof_share = {
    f0 : F.t;  (** share of the random mask f(0) *)
    g0 : F.t;  (** share of the random mask g(0) *)
    h_points : F.t array;
        (** shares of h evaluated on the 2N-grid (empty when M = 0) *)
    a : F.t;
    b : F.t;
    c : F.t;  (** share of the Beaver triple *)
  }

  type submission_share = { x_share : F.t array; proof : proof_share }

  (** Grid size N for a circuit: the covering power of two of M+1 slots
      (slot 0 is the random mask). *)
  let grid_size circuit =
    let m = C.num_mul_gates circuit in
    if m = 0 then 0 else Ntt.next_pow2 (m + 1)

  (** Field elements in one proof share: 2 masks + 2N h-points + 3 triple
      components (0 when the circuit is multiplication-free). *)
  let proof_num_elements circuit =
    let n = grid_size circuit in
    if n = 0 then 0 else 2 + (2 * n) + 3

  (** Parse a flat share vector x_share ‖ f0 ‖ g0 ‖ h_points ‖ a ‖ b ‖ c
      into a submission share. Because additive sharing is coordinate-wise,
      a share of the concatenation is the concatenation of shares — this is
      what lets the PRG-compressed upload path (Appendix I) expand a single
      32-byte seed into a whole submission share. *)
  let submission_of_vector (circuit : C.t) (v : F.t array) : submission_share =
    let l = C.num_inputs circuit in
    let n = grid_size circuit in
    let expect = l + proof_num_elements circuit in
    if Array.length v <> expect then
      invalid_arg
        (Printf.sprintf "Snip.submission_of_vector: expected %d elements, got %d"
           expect (Array.length v));
    let x_share = Array.sub v 0 l in
    if n = 0 then
      {
        x_share;
        proof =
          { f0 = F.zero; g0 = F.zero; h_points = [||]; a = F.zero; b = F.zero; c = F.zero };
      }
    else
      {
        x_share;
        proof =
          {
            f0 = v.(l);
            g0 = v.(l + 1);
            h_points = Array.sub v (l + 2) (2 * n);
            a = v.(l + 2 + (2 * n));
            b = v.(l + 3 + (2 * n));
            c = v.(l + 4 + (2 * n));
          };
      }

  let vector_of_submission (sub : submission_share) : F.t array =
    let p = sub.proof in
    if Array.length p.h_points = 0 then sub.x_share
    else
      Array.concat
        [ sub.x_share; [| p.f0; p.g0 |]; p.h_points; [| p.a; p.b; p.c |] ]

  (* ------------------------------------------------------------------ *)
  (* Client: proof generation (§4.2 step 1).                             *)
  (* ------------------------------------------------------------------ *)

  (** The plain (unshared) proof elements f(0) ‖ g(0) ‖ h-points ‖ (a,b,c)
      for inputs x. Concatenated with x and secret-shared, this is the
      client's whole upload. *)
  let proof_vector ~rng ~(circuit : C.t) ~(inputs : F.t array) : F.t array =
    let m = C.num_mul_gates circuit in
    if m = 0 then [||]
    else begin
      Trace.with_span "snip.prove" ~attrs:[ ("mul_gates", string_of_int m) ]
      @@ fun () ->
      let _, pairs = C.eval_mul_pairs circuit ~inputs in
      let n = Ntt.next_pow2 (m + 1) in
      let u = Array.make n F.zero and v = Array.make n F.zero in
      u.(0) <- F.random rng;
      v.(0) <- F.random rng;
      for t = 1 to m do
        let ut, vt = pairs.(t - 1) in
        u.(t) <- ut;
        v.(t) <- vt
      done;
      (* h = f·g has degree ≤ 2n−2 < 2n, so its 2N-grid values are the
         pointwise products f·g there: u_t·v_t at the even points, and one
         size-n transform of f and of g on the odd coset. *)
      let h_points = Ntt.double_grid_product u v in
      let a = F.random rng and b = F.random rng in
      let c = F.mul a b in
      Array.concat [ [| u.(0); v.(0) |]; h_points; [| a; b; c |] ]
    end

  (** Build and split a complete submission, one share per server. *)
  let prove ~rng ~(circuit : C.t) ~num_servers ~(inputs : F.t array) :
      submission_share array =
    let s = num_servers in
    if s < 2 then invalid_arg "Snip.prove: need at least two servers";
    let full = Array.append inputs (proof_vector ~rng ~circuit ~inputs) in
    let shares = Sh.split_vector rng ~s full in
    Array.map (submission_of_vector circuit) shares

  (* ------------------------------------------------------------------ *)
  (* Servers: batched verification (§4.2 steps 2–4, Appendix I).         *)
  (* ------------------------------------------------------------------ *)

  type batch_ctx = {
    circuit : C.t;
    s : int;
    inv_s : F.t;
    n : int; (* grid size, 0 for mul-free circuits *)
    r : F.t;
    re_n : RE.ctx option;
    re_2n : RE.ctx option;
    zcoef : F.t array; (* random coefficients for the assert-zero combination *)
  }

  (** Sample the batch secrets (the identity-test point r and the
      assert-zero combination coefficients) and precompute the fixed-r
      Lagrange weights. In deployment the leader samples these per batch of
      ~2^10 submissions and shares them with the other servers over the
      authenticated server-to-server channels; the client never learns
      them. *)
  let make_batch_ctx ~rng ~(circuit : C.t) ~num_servers : batch_ctx =
    let s = num_servers in
    let n = grid_size circuit in
    let zcoef =
      Array.init (Array.length circuit.C.assert_zero) (fun _ -> F.random rng)
    in
    if n = 0 then
      { circuit; s; inv_s = F.inv (F.of_int s); n; r = F.zero; re_n = None; re_2n = None; zcoef }
    else begin
      let rec sample () =
        let r = F.random rng in
        if RE.r_collides ~n:(2 * n) r then sample () else r
      in
      let r = sample () in
      {
        circuit;
        s;
        inv_s = F.inv (F.of_int s);
        n;
        r;
        re_n = Some (RE.create ~n ~r);
        re_2n = Some (RE.create ~n:(2 * n) ~r);
        zcoef;
      }
    end

  type server_state = {
    fr : F.t; (* share of f(r) *)
    gr : F.t; (* share of g(r) *)
    hr : F.t; (* share of h(r) *)
    st_proof : proof_share;
    zero_combo : F.t; (* share of Σ_j z_j · (assert-zero wire j) *)
  }

  type opening = { d : F.t; e : F.t }
  (** Beaver openings: d_i = [f(r)]_i − [a]_i and e_i = [r·g(r)]_i − [b]_i. *)

  type verdict_share = { sigma : F.t; zero : F.t }

  (** Local, communication-free pass over one submission share: walk the
      circuit on shares, evaluate the three polynomials at r, and emit the
      Beaver openings. *)
  let server_prepare (ctx : batch_ctx) (sub : submission_share) :
      server_state * opening =
    let { circuit; inv_s; n; r; re_n; re_2n; _ } = ctx in
    let m = C.num_mul_gates circuit in
    let mul_outputs =
      Array.init m (fun t -> sub.proof.h_points.(2 * (t + 1)))
    in
    let wires, pairs =
      C.eval_shares circuit ~const_share_of_one:inv_s ~inputs:sub.x_share
        ~mul_outputs
    in
    let zero_combo =
      let zs = C.assert_zero_values circuit wires in
      let acc = ref F.zero in
      Array.iteri (fun j z -> acc := F.add !acc (F.mul ctx.zcoef.(j) z)) zs;
      !acc
    in
    if m = 0 then
      ( { fr = F.zero; gr = F.zero; hr = F.zero; st_proof = sub.proof; zero_combo },
        { d = F.zero; e = F.zero } )
    else begin
      let fv = Array.make n F.zero and gv = Array.make n F.zero in
      fv.(0) <- sub.proof.f0;
      gv.(0) <- sub.proof.g0;
      for t = 1 to m do
        let u, v = pairs.(t - 1) in
        fv.(t) <- u;
        gv.(t) <- v
      done;
      let re_n, re_2n =
        match (re_n, re_2n) with
        | Some a, Some b -> (a, b)
        | _ -> assert false (* batch_ctx builds both whenever m > 0 *)
      in
      let fr = RE.eval re_n fv in
      let gr = RE.eval re_n gv in
      let hr = RE.eval re_2n sub.proof.h_points in
      let d = F.sub fr sub.proof.a in
      let e = F.sub (F.mul r gr) sub.proof.b in
      ({ fr; gr; hr; st_proof = sub.proof; zero_combo }, { d; e })
    end

  (** Given the publicly reconstructed openings d = Σd_i and e = Σe_i,
      produce this server's verdict share
      σ_i = de/s + d·[b]_i + e·[a]_i + [c]_i − [r·h(r)]_i. *)
  let server_decide_share (ctx : batch_ctx) (st : server_state) ~(d : F.t)
      ~(e : F.t) : verdict_share =
    if ctx.n = 0 then { sigma = F.zero; zero = st.zero_combo }
    else begin
      let p = st.st_proof in
      let sigma =
        F.sub
          (F.add
             (F.add (F.mul (F.mul d e) ctx.inv_s) (F.mul d p.b))
             (F.add (F.mul e p.a) p.c))
          (F.mul ctx.r st.hr)
      in
      { sigma; zero = st.zero_combo }
    end

  (** Final public decision: both sums must vanish. *)
  let accept (verdicts : verdict_share array) : bool =
    let sum f = Array.fold_left (fun acc v -> F.add acc (f v)) F.zero verdicts in
    F.is_zero (sum (fun v -> v.sigma)) && F.is_zero (sum (fun v -> v.zero))

  (** Run the complete verification given every server's submission share —
      the convenience entry point used by tests and single-process
      pipelines. *)
  let verify_all (ctx : batch_ctx) (subs : submission_share array) : bool =
    if Array.length subs <> ctx.s then invalid_arg "Snip.verify_all: wrong share count";
    Trace.with_span "snip.verify" @@ fun () ->
    let states = Array.map (server_prepare ctx) subs in
    let d = Array.fold_left (fun acc (_, o) -> F.add acc o.d) F.zero states in
    let e = Array.fold_left (fun acc (_, o) -> F.add acc o.e) F.zero states in
    let verdicts =
      Array.map (fun (st, _) -> server_decide_share ctx st ~d ~e) states
    in
    accept verdicts
end
