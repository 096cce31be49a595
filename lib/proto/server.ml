(** One Prio server's local state and communication-free processing steps
    (paper, Appendix H steps 2–4). The message flow between servers lives in
    {!Cluster}. *)

module Make (F : Prio_field.Field_intf.S) = struct
  module C = Prio_circuit.Circuit.Make (F)
  module Snip = Prio_snip.Snip.Make (F)
  module Sh = Prio_share.Share.Make (F)
  module W = Wire.Make (F)
  module Rng = Prio_crypto.Rng
  module Authbox = Prio_crypto.Authbox
  module Sha256 = Prio_crypto.Sha256
  module Metrics = Prio_obs.Metrics
  module Trace = Prio_obs.Trace

  let m_dropped = Metrics.counter "prio_server_dropped_packets_total"
  let m_rotations = Metrics.counter "prio_server_epoch_rotations_total"
  let g_resident = Metrics.gauge "prio_server_resident_entries"

  type t = {
    id : int;
    num_servers : int;
    master : Bytes.t;
    trunc_len : int;  (** accumulator width k' *)
    payload_elements : int;  (** expected flat share vector length *)
    accumulator : F.t array;
    mutable accepted : int;
    mutable seen_nonces : (string, unit) Hashtbl.t;
    mutable prev_nonces : (string, unit) Hashtbl.t;
        (** the previous epoch's replay nonces, kept one generation back so
            a packet replayed right after a rotation is still caught — a
            replay must be older than a full epoch to slip past *)
    mutable decisions : (int, bool) Hashtbl.t;
        (** client_id → final verdict, kept so a retried (duplicate)
            submission or verify request is re-acknowledged with the
            original answer instead of re-processed *)
    mutable prev_decisions : (int, bool) Hashtbl.t;
        (** previous epoch's verdicts, same one-generation grace window as
            [prev_nonces]: a retry that crosses one epoch boundary is still
            re-acked instead of re-verified (and double-counted) *)
    mutable journal_seq : int;
        (** monotone count of decisions ever first-recorded on this server;
            never reset by rotation. The decision journal stamps each entry
            with this sequence and the checkpoint carries it, so replay
            after a restore applies exactly the journaled decisions the
            snapshot has not absorbed yet. *)
    mutable epoch : int;  (** completed {!rotate_epoch} calls *)
    mutable decided_in_epoch : int;
        (** distinct client verdicts recorded since the last rotation *)
    mutable replay_digest : Bytes.t;
        (** 32-byte running SHA-256 chain over every admitted nonce and
            every epoch rotation — a constant-size commitment to the
            replay table's history that a checkpoint can carry without
            serializing the table itself *)
  }

  (* Domain-separated chain head: every server starts from the same
     well-known value, so the digest commits only to what was admitted. *)
  let initial_replay_digest () = Sha256.digest_string "prio-replay-digest-v1"

  let create ~id ~num_servers ~master ~trunc_len ~payload_elements =
    {
      id;
      num_servers;
      master;
      trunc_len;
      payload_elements;
      accumulator = Array.make trunc_len F.zero;
      accepted = 0;
      seen_nonces = Hashtbl.create 1024;
      prev_nonces = Hashtbl.create 16;
      decisions = Hashtbl.create 1024;
      prev_decisions = Hashtbl.create 16;
      journal_seq = 0;
      epoch = 0;
      decided_in_epoch = 0;
      replay_digest = initial_replay_digest ();
    }

  let decision t ~client_id =
    match Hashtbl.find_opt t.decisions client_id with
    | Some _ as d -> d
    | None -> Hashtbl.find_opt t.prev_decisions client_id

  (** Record the cluster's final verdict on a client id, making later
      duplicate uploads / verify requests idempotent. First write wins: a
      late contradictory broadcast (the degraded-abort race) cannot
      overwrite a verdict already recorded — and journaled — here. Returns
      [true] iff this call recorded a new decision. *)
  let record_decision t ~client_id accepted =
    match decision t ~client_id with
    | Some _ -> false
    | None ->
      Hashtbl.add t.decisions client_id accepted;
      t.decided_in_epoch <- t.decided_in_epoch + 1;
      t.journal_seq <- t.journal_seq + 1;
      true

  (** Per-submission state currently resident: replay nonces plus recorded
      verdicts, across both the live epoch and the one-epoch grace
      generation. Bounded by [2 * epoch_size] per table kind when callers
      rotate epochs, which is the streaming-mode flat-memory invariant the
      tests assert. *)
  let resident_entries t =
    Hashtbl.length t.seen_nonces + Hashtbl.length t.prev_nonces
    + Hashtbl.length t.decisions + Hashtbl.length t.prev_decisions

  (** Close the current epoch: age the replay and idempotency tables one
      generation (current → grace, grace dropped and recycled) and fold the
      rotation into the replay digest chain. The grace generation means a
      replay or retry must cross {e two} epoch boundaries — i.e. be older
      than a full epoch — before its nonce and verdict are forgotten, so a
      retried submission rotated out mid-flight is still re-acked from the
      recorded verdict instead of re-verified and double-counted. Memory
      stays bounded at two generations per table kind. *)
  let rotate_epoch t =
    let recycled_nonces = t.prev_nonces and recycled_decisions = t.prev_decisions in
    Hashtbl.reset recycled_nonces;
    Hashtbl.reset recycled_decisions;
    t.prev_nonces <- t.seen_nonces;
    t.prev_decisions <- t.decisions;
    t.seen_nonces <- recycled_nonces;
    t.decisions <- recycled_decisions;
    t.epoch <- t.epoch + 1;
    t.decided_in_epoch <- 0;
    let c = Sha256.init () in
    Sha256.update_string c "prio-epoch-rotate";
    Sha256.update c t.replay_digest;
    let epoch = Bytes.create 4 in
    Wire.set_u32 epoch 0 t.epoch;
    Sha256.update c epoch;
    t.replay_digest <- Sha256.finalize c;
    Metrics.incr m_rotations;
    Metrics.set g_resident (float_of_int (resident_entries t));
    Trace.event "server.epoch_rotated"
      ~attrs:
        [ ("server", string_of_int t.id); ("epoch", string_of_int t.epoch) ]

  (** Overwrite this server's aggregate state from a checkpoint snapshot.
      The replay/idempotency tables are reset — a snapshot carries only
      their digest, so replay protection restarts scoped to the resumed
      epoch. @raise Invalid_argument on a width or digest-size mismatch. *)
  let restore ?(journal_seq = 0) t ~epoch ~accepted ~decided_in_epoch
      ~replay_digest ~(accumulator : F.t array) =
    if Array.length accumulator <> t.trunc_len then
      invalid_arg "Server.restore: accumulator width mismatch";
    if Bytes.length replay_digest <> 32 then
      invalid_arg "Server.restore: replay digest must be 32 bytes";
    Array.blit accumulator 0 t.accumulator 0 t.trunc_len;
    t.accepted <- accepted;
    t.epoch <- epoch;
    t.decided_in_epoch <- decided_in_epoch;
    t.journal_seq <- journal_seq;
    t.replay_digest <- Bytes.copy replay_digest;
    Hashtbl.reset t.seen_nonces;
    Hashtbl.reset t.prev_nonces;
    Hashtbl.reset t.decisions;
    Hashtbl.reset t.prev_decisions

  (** Authenticate, decrypt, replay-check and expand one client packet into
      this server's flat share vector. [None] on forgery, replay, or
      malformed payload — the packet is dropped, as in the real system. *)
  let receive_checked t ~client_id (packet : Bytes.t) :
      (Bytes.t * F.t array) option =
    let key = Authbox.derive_key ~client_id ~server_id:t.id ~master:t.master in
    match Authbox.open_ ~key packet with
    | None -> None
    | Some body ->
      if Bytes.length body < 16 then None
      else begin
        let nonce = Bytes.sub body 0 16 in
        let nonce_key = Bytes.to_string nonce in
        if
          Hashtbl.mem t.seen_nonces nonce_key
          || Hashtbl.mem t.prev_nonces nonce_key
        then None
        else begin
          match
            W.payload_of_bytes (Bytes.sub body 16 (Bytes.length body - 16))
          with
          | exception Invalid_argument _ -> None
          | payload ->
            (match Sh.expand payload ~len:t.payload_elements with
            | exception Invalid_argument _ -> None
            | share ->
              Hashtbl.replace t.seen_nonces nonce_key ();
              (* chain the admitted nonce into the epoch's replay digest *)
              t.replay_digest <-
                Sha256.digest (Bytes.cat t.replay_digest nonce);
              Metrics.set g_resident (float_of_int (resident_entries t));
              Some (nonce, share))
        end
      end

  let receive t ~client_id (packet : Bytes.t) : (Bytes.t * F.t array) option =
    match receive_checked t ~client_id packet with
    | None ->
      Metrics.incr m_dropped;
      Trace.event "server.dropped_packet"
        ~attrs:
          [ ("server", string_of_int t.id); ("client", string_of_int client_id) ];
      None
    | some -> some

  (** Aggregate step: fold the first k' components of an accepted encoding
      share into the local accumulator. *)
  let accumulate t (x_share : F.t array) =
    for j = 0 to t.trunc_len - 1 do
      t.accumulator.(j) <- F.add t.accumulator.(j) x_share.(j)
    done;
    t.accepted <- t.accepted + 1

  (** Publish step: reveal the accumulator, optionally with this server's
      differential-privacy noise share (§7). *)
  let publish ?dp_noise t : F.t array =
    match dp_noise with
    | None -> Array.copy t.accumulator
    | Some (rng, alpha) ->
      Array.map
        (fun v ->
          let noise = Dp.server_noise_share rng ~num_servers:t.num_servers ~alpha in
          F.add v (F.of_int noise))
        t.accumulator
end
