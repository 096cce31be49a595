(** Secret-shared non-interactive proofs (SNIPs) — the paper's §4 and the
    heart of Prio.

    A client holding x proves to s servers, each holding an additive
    share [x]_i, that Valid(x) holds — where Valid is an arithmetic
    circuit with M multiplication gates and a set of assert-zero wires —
    while the servers learn nothing else about x (if at least one is
    honest) and exchange only four field elements per submission.

    Construction summary: the client places each mul gate's operands on a
    root-of-unity grid (slot 0 carries uniform masks for zero-knowledge),
    interpolates polynomials f and g by inverse NTT, ships h = f·g in
    point-value form on the doubled grid plus one Beaver triple, all
    secret-shared. Each server re-derives shares of every wire by walking
    the circuit (mul outputs come from h), and the cluster runs the
    randomized polynomial identity test on t·(f·g − h) at a batch-fixed
    secret point r using the triple for the one secret-shared
    multiplication, together with a random linear combination of the
    assert-zero wires. Soundness error ≤ (2N + 1)/|F| per submission;
    see docs/PROTOCOL.md for the full derivation. *)

module Make (F : Prio_field.Field_intf.S) : sig
  module C : module type of Prio_circuit.Circuit.Make (F)

  (** Every entry point takes the circuit as deployed: proof sizes, grids
      and circuit walks refer to exactly the circuit given, and nothing
      here optimizes it. A circuit is optimized once, where it is built
      ([Afe.compile] does it for every AFE; a hand-built circuit calls
      [Opt.optimize] itself), and client and servers must hold the same
      circuit for shares to parse. *)

  type proof_share = {
    f0 : F.t;  (** share of the random mask f(0) *)
    g0 : F.t;  (** share of the random mask g(0) *)
    h_points : F.t array;
        (** shares of h on the 2N-grid (empty when M = 0) *)
    a : F.t;
    b : F.t;
    c : F.t;  (** share of the Beaver triple, c = a·b *)
  }

  type submission_share = { x_share : F.t array; proof : proof_share }

  val grid_size : C.t -> int
  (** N = 2^⌈log₂(M+1)⌉, or 0 for multiplication-free circuits. *)

  val proof_num_elements : C.t -> int
  (** Field elements in one proof share: 2 + 2N + 3 (0 when M = 0). *)

  (** {1 Flat-vector form}

      A submission share is also a flat vector x ‖ f0 ‖ g0 ‖ h ‖ (a,b,c);
      because additive sharing is coordinate-wise, sharing the
      concatenation equals concatenating shares — the basis of the
      PRG-compressed upload path. *)

  val submission_of_vector : C.t -> F.t array -> submission_share

  val vector_of_submission : submission_share -> F.t array

  (** {1 Client (prover)} *)

  val proof_vector : rng:Prio_crypto.Rng.t -> circuit:C.t -> inputs:F.t array -> F.t array
  (** The plain (unshared) proof elements for inputs x. *)

  val prove :
    rng:Prio_crypto.Rng.t -> circuit:C.t -> num_servers:int ->
    inputs:F.t array -> submission_share array
  (** Build and split a complete submission, one share per server. *)

  (** {1 Servers (verifiers)} *)

  type batch_ctx
  (** Batch secrets (the identity-test point r and the assert-zero
      combination coefficients) with the fixed-r Lagrange weights
      precomputed — amortized over ~1000 submissions (Appendix I). *)

  val make_batch_ctx :
    rng:Prio_crypto.Rng.t -> circuit:C.t -> num_servers:int -> batch_ctx

  type server_state = {
    fr : F.t;  (** share of f(r) *)
    gr : F.t;  (** share of g(r) *)
    hr : F.t;  (** share of h(r) *)
    st_proof : proof_share;
    zero_combo : F.t;  (** share of Σ z_j·(assert-zero wire j) *)
  }

  type opening = { d : F.t; e : F.t }
  (** Beaver openings d_i = [f(r)]_i − [a]_i, e_i = [r·g(r)]_i − [b]_i. *)

  type verdict_share = { sigma : F.t; zero : F.t }

  val server_prepare : batch_ctx -> submission_share -> server_state * opening
  (** One server's communication-free pass: circuit walk on shares,
      polynomial evaluations at r, Beaver openings. *)

  val server_decide_share : batch_ctx -> server_state -> d:F.t -> e:F.t -> verdict_share
  (** Given the reconstructed openings, this server's verdict share
      σ_i = de/s + d·[b]_i + e·[a]_i + [c]_i − r·[h(r)]_i and its
      assert-zero combination share. *)

  val accept : verdict_share array -> bool
  (** The public decision: both verdict sums must vanish. *)

  val verify_all : batch_ctx -> submission_share array -> bool
  (** Run the whole check in one process (tests, simulator, pipelines). *)
end
