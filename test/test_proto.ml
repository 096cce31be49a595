(* Protocol-layer tests: wire formats, the simulated cluster (acceptance,
   rejection, replay and forgery handling, byte accounting), distributed
   differential-privacy noise, and the NIZK pipeline. *)

module Rng = Prio_crypto.Rng
module B = Prio_bigint.Bigint
module F = Prio_field.F87
module W = Prio_proto.Wire.Make (F)
module Sh = Prio_share.Share.Make (F)
module Sum = Prio_afe.Sum.Make (F)
module A = Prio_afe.Afe.Make (F)
module Cl = Prio_proto.Cluster.Make (F)
module Client = Prio_proto.Client.Make (F)
module P = Prio_proto.Pipeline.Make (F)
module Dp = Prio_proto.Dp

let rng = Rng.of_string_seed "proto-tests"

(* ------------------------------- wire ------------------------------- *)

(* The [H] payload of a health probe: every field round-trips through the
   JSON writer and reader, and the reader refuses anything else. *)
let test_health_json () =
  let module T = Prio_proto.Transport in
  List.iter
    (fun (h_ckpt_age, h_peers) ->
      let h =
        { T.h_server = 3; h_epoch = 7; h_pending = 2; h_accepted = 41;
          h_ckpt_age; h_peers }
      in
      let text = T.health_to_json h in
      Alcotest.(check bool) ("round trip " ^ text) true
        (T.health_of_json text = Some h);
      for cut = 0 to String.length text - 1 do
        if T.health_of_json (String.sub text 0 cut) <> None then
          Alcotest.failf "read a payload truncated to %d bytes" cut
      done)
    [ (None, []); (Some (0.1 +. 0.2), []);
      (None, [ (1, true); (2, false); (3, true); (4, false) ]);
      (Some 1234.5e-9, [ (1, false); (2, true); (3, false); (4, true) ]) ];
  List.iter
    (fun text ->
      if T.health_of_json text <> None then Alcotest.failf "read %S" text)
    [ "";
      "health";
      "\000\000\000\003";
      "[]";
      {|{"server":0,"epoch":"1","pending":0,"accepted":0,"ckpt_age":null,"peers":[]}|};
      {|{"server":0.5,"epoch":1,"pending":0,"accepted":0,"ckpt_age":null,"peers":[]}|};
      {|{"server":0,"epoch":1,"pending":0,"accepted":0,"ckpt_age":"old","peers":[]}|};
      {|{"server":0,"epoch":1,"pending":0,"accepted":0,"ckpt_age":null,"peers":[[1,1]]}|};
      {|{"server":0,"epoch":1,"pending":0,"accepted":0,"ckpt_age":null,"peers":{}}|};
      {|{"server":0,"epoch":1,"pending":0,"ckpt_age":null,"peers":[]}|} ]

let test_wire_vector () =
  for _ = 1 to 10 do
    let v = Array.init (Rng.int_below rng 20) (fun _ -> F.random rng) in
    let b = W.vector_to_bytes v in
    Alcotest.(check int) "size" (Array.length v * F.bytes_len) (Bytes.length b);
    Alcotest.(check bool) "roundtrip" true
      (Array.for_all2 F.equal (W.vector_of_bytes b) v)
  done;
  Alcotest.(check bool) "ragged rejected" true
    (match W.vector_of_bytes (Bytes.create 3) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_wire_payload () =
  let v = Array.init 7 (fun _ -> F.random rng) in
  let roundtrip c =
    let c' = W.payload_of_bytes (W.payload_to_bytes c) in
    Array.for_all2 F.equal (Sh.expand c ~len:7) (Sh.expand c' ~len:7)
  in
  Alcotest.(check bool) "explicit" true (roundtrip (Sh.Explicit v));
  let seed = Rng.bytes rng Rng.seed_bytes in
  Alcotest.(check bool) "seed" true (roundtrip (Sh.Seed seed));
  Alcotest.(check bool) "bad tag" true
    (match W.payload_of_bytes (Bytes.of_string "\002xy") with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------ cluster ----------------------------- *)

let make_cluster ?(num_servers = 3) mode =
  let afe = Sum.sum ~bits:4 in
  let master = Rng.bytes rng 32 in
  let cluster =
    Cl.create ~rng ~mode ~circuit:afe.A.circuit ~trunc_len:afe.A.trunc_len
      ~num_servers ~master ()
  in
  (afe, cluster)

let submit_value ?(tamper = fun pk -> pk) (afe, cluster) ~client_id x =
  let enc = afe.A.encode ~rng x in
  let pk =
    Client.submit ~rng
      ~mode:(Cl.client_mode cluster)
      ~num_servers:cluster.Cl.s ~client_id ~master:cluster.Cl.master enc
  in
  Cl.submit cluster ~client_id (tamper pk)

let test_cluster_modes_aggregate () =
  List.iter
    (fun mode ->
      let ((afe, cluster) as d) = make_cluster mode in
      List.iteri
        (fun i x ->
          Alcotest.(check bool) "accepted" true (submit_value d ~client_id:i x))
        [ 3; 7; 15; 0; 9 ];
      let sigma = Cl.publish cluster in
      Alcotest.(check string) "aggregate" "34"
        (B.to_string (afe.A.decode ~n:5 sigma));
      Alcotest.(check int) "accepted count" 5 cluster.Cl.accepted;
      Alcotest.(check int) "rejected count" 0 cluster.Cl.rejected)
    [ Cl.Robust_snip; Cl.Robust_mpc; Cl.No_robustness ]

let test_cluster_rejects_cheater () =
  List.iter
    (fun mode ->
      let ((afe, cluster) as d) = make_cluster mode in
      ignore (submit_value d ~client_id:0 7);
      (* inject an encoding inconsistent with its bit decomposition *)
      let bad = afe.A.encode ~rng 3 in
      bad.(0) <- F.of_int 11;
      let pk =
        Client.submit ~rng ~mode:(Cl.client_mode cluster)
          ~num_servers:cluster.Cl.s ~client_id:1 ~master:cluster.Cl.master bad
      in
      Alcotest.(check bool) "cheater rejected" false (Cl.submit cluster ~client_id:1 pk);
      ignore (submit_value d ~client_id:2 5);
      let sigma = Cl.publish cluster in
      (* the bogus 11 never entered the aggregate *)
      Alcotest.(check string) "aggregate excludes cheater" "12"
        (B.to_string (afe.A.decode ~n:2 sigma)))
    [ Cl.Robust_snip; Cl.Robust_mpc ]

let test_cluster_replay_and_forgery () =
  let ((afe, cluster) as d) = make_cluster Cl.Robust_snip in
  ignore afe;
  Alcotest.(check bool) "first accepted" true (submit_value d ~client_id:0 3);
  (* replay: resubmit the exact same packets *)
  let enc = afe.A.encode ~rng 5 in
  let pk =
    Client.submit ~rng ~mode:(Cl.client_mode cluster) ~num_servers:cluster.Cl.s
      ~client_id:1 ~master:cluster.Cl.master enc
  in
  Alcotest.(check bool) "accepted once" true (Cl.submit cluster ~client_id:1 pk);
  Alcotest.(check bool) "replay dropped" false (Cl.submit cluster ~client_id:1 pk);
  (* forgery: flip a ciphertext byte *)
  Alcotest.(check bool) "forged packet dropped" false
    (submit_value d ~client_id:2 4 ~tamper:(fun pk ->
         Bytes.set pk.Client.sealed.(1) 20 '\xff';
         pk));
  (* a packet sealed under the wrong client id fails auth *)
  let pk =
    Client.submit ~rng ~mode:(Cl.client_mode cluster) ~num_servers:cluster.Cl.s
      ~client_id:99 ~master:cluster.Cl.master enc
  in
  Alcotest.(check bool) "wrong identity dropped" false
    (Cl.submit cluster ~client_id:3 pk)

let test_byte_accounting_shapes () =
  (* Prio: per-submission non-leader traffic is constant; Prio-MPC grows
     with the circuit. This is the Figure 6 claim in miniature. *)
  let afe_small = Sum.sum ~bits:2 and afe_big = Sum.sum ~bits:32 in
  let master = Rng.bytes rng 32 in
  let traffic mode afe =
    let cluster =
      Cl.create ~rng ~mode ~circuit:afe.A.circuit ~trunc_len:afe.A.trunc_len
        ~num_servers:3 ~master ()
    in
    let enc = afe.A.encode ~rng 1 in
    let pk =
      Client.submit ~rng ~mode:(Cl.client_mode cluster) ~num_servers:3
        ~client_id:0 ~master enc
    in
    ignore (Cl.submit cluster ~client_id:0 pk);
    (* server 1 never led (leader rotation starts at 0) *)
    Cl.bytes_sent cluster 1
  in
  let snip_small = traffic Cl.Robust_snip afe_small in
  let snip_big = traffic Cl.Robust_snip afe_big in
  Alcotest.(check int) "snip non-leader bytes constant" snip_small snip_big;
  let mpc_small = traffic Cl.Robust_mpc afe_small in
  let mpc_big = traffic Cl.Robust_mpc afe_big in
  Alcotest.(check bool) "mpc bytes grow with circuit" true (mpc_big > 4 * mpc_small);
  let none = traffic Cl.No_robustness afe_big in
  Alcotest.(check int) "no-robustness needs no gossip" 0 none

(* Prio-MPC's wire sizes, pinned exactly at two circuit sizes: the
   client's flat share vector (encoding ‖ M triples ‖ triple-SNIP proof)
   and the server-to-server bytes of one submission (the triple SNIP's
   four elements plus one Beaver round per mul gate). *)
let test_mpc_sizes_pinned () =
  let master = Rng.bytes rng 32 in
  let sizes afe =
    let cluster =
      Cl.create ~rng ~mode:Cl.Robust_mpc ~circuit:afe.A.circuit
        ~trunc_len:afe.A.trunc_len ~num_servers:5 ~master ()
    in
    let mode = Cl.client_mode cluster in
    let pk =
      Client.submit ~rng ~mode ~num_servers:5 ~client_id:0 ~master
        (afe.A.encode ~rng 1)
    in
    Alcotest.(check bool) "accepted" true (Cl.submit cluster ~client_id:0 pk);
    ( Client.payload_elements ~mode ~l:afe.A.encoding_len,
      Cl.total_server_bytes cluster )
  in
  Alcotest.(check (pair int int)) "4-bit sum" (38, 1020) (sizes (Sum.sum ~bits:4));
  Alcotest.(check (pair int int)) "32-bit sum" (262, 5948) (sizes (Sum.sum ~bits:32))

let test_no_privacy_single_server () =
  (* the no-privacy baseline is the degenerate s = 1 deployment *)
  let afe = Sum.sum ~bits:4 in
  let master = Rng.bytes rng 32 in
  let cluster =
    Cl.create ~rng ~mode:Cl.No_robustness ~circuit:afe.A.circuit
      ~trunc_len:afe.A.trunc_len ~num_servers:1 ~master ()
  in
  List.iteri
    (fun i x ->
      let pk =
        Client.submit ~rng ~mode:Client.No_robustness ~num_servers:1
          ~client_id:i ~master (afe.A.encode ~rng x)
      in
      ignore (Cl.submit cluster ~client_id:i pk))
    [ 1; 2; 3 ];
  Alcotest.(check string) "sum" "6" (B.to_string (afe.A.decode ~n:3 (Cl.publish cluster)))

let test_pipeline_helpers () =
  let afe = Sum.sum ~bits:4 in
  let master = Rng.bytes rng 32 in
  let cluster =
    Cl.create ~rng ~mode:Cl.Robust_snip ~circuit:afe.A.circuit
      ~trunc_len:afe.A.trunc_len ~num_servers:5 ~master ()
  in
  let encodings = List.init 10 (fun i -> afe.A.encode ~rng (i mod 16)) in
  let prepared = P.prepare ~rng cluster encodings in
  Alcotest.(check int) "all prepared" 10 (Array.length prepared.P.packets);
  Alcotest.(check bool) "upload bytes counted" true (prepared.P.upload_bytes > 0);
  let accepted, secs = P.process cluster prepared in
  Alcotest.(check int) "all accepted" 10 accepted;
  Alcotest.(check bool) "throughput positive" true
    (P.simulated_throughput ~num_servers:5 ~n:10 ~serial_seconds:secs > 0.)

(* ------------------------- PRG share compression --------------------- *)

let test_upload_compression () =
  (* compressed upload must be ~s× smaller than explicit sharing for large
     submissions: all but one packet is seed-sized *)
  let afe = Sum.sum ~bits:60 in
  let master = Rng.bytes rng 32 in
  let s = 5 in
  let enc = afe.A.encode ~rng 123456 in
  let pk =
    Client.submit ~rng ~mode:(Client.Robust_snip afe.A.circuit) ~num_servers:s
      ~client_id:0 ~master enc
  in
  let sizes = Array.map Bytes.length pk.Client.sealed in
  for i = 0 to s - 2 do
    Alcotest.(check bool) "seed packets are tiny" true (sizes.(i) < 100)
  done;
  Alcotest.(check bool) "one explicit packet" true (sizes.(s - 1) > 1000)

(* The client's wire bytes, pinned: every sealed packet of one
   wide-bits submission (256 one-bit coordinates, 5 servers) drawn from a
   fixed seed, hashed. The digest predates the coset prover, the
   streamed share split and the word-level SHA-256/ChaCha20 kernels, so
   it shows they moved no byte. It trips on any later change to proving,
   splitting, sealing or the crypto beneath them that moves one. *)
let test_client_packets_known_answer () =
  let module C = Prio_circuit.Circuit.Make (F) in
  let l = 256 in
  let b = C.Builder.create ~num_inputs:l in
  for i = 0 to l - 1 do
    C.Builder.assert_bit b (C.Builder.input b i)
  done;
  let circuit = C.Builder.build b in
  let rng = Rng.of_string_seed "client-packets-kat" in
  let master = Rng.bytes rng 32 in
  let enc = Array.init l (fun _ -> F.of_int (Rng.int_below rng 2)) in
  let pk =
    Client.submit ~rng ~mode:(Client.Robust_snip circuit) ~num_servers:5
      ~client_id:3 ~master enc
  in
  let digest =
    Prio_crypto.Sha256.digest (Bytes.concat Bytes.empty (Array.to_list pk.Client.sealed))
  in
  Alcotest.(check int) "upload bytes" 14488 pk.Client.upload_bytes;
  Alcotest.(check string) "packets sha256"
    "4392ce6021f67a467464ff228746579fb1cab7110da8c21a69dffe04169b5227"
    (Prio_crypto.Sha256.hex digest)

(* ------------------------------- DP --------------------------------- *)

let test_dp_moments () =
  let rng = Rng.of_string_seed "dp-moments" in
  let alpha = Dp.alpha_of_epsilon ~epsilon:0.5 ~sensitivity:1 in
  let n = 20000 in
  (* distributed shares must sum to TSG noise: compare mean/variance *)
  let total_mean = ref 0. and total_m2 = ref 0. in
  let s = 5 in
  for _ = 1 to n do
    let noise = ref 0 in
    for _ = 1 to s do
      noise := !noise + Dp.server_noise_share rng ~num_servers:s ~alpha
    done;
    let x = float_of_int !noise in
    total_mean := !total_mean +. x;
    total_m2 := !total_m2 +. (x *. x)
  done;
  let mean = !total_mean /. float_of_int n in
  let var = (!total_m2 /. float_of_int n) -. (mean *. mean) in
  let expect_var = Dp.tsg_variance ~alpha in
  Alcotest.(check bool) (Printf.sprintf "mean ~ 0 (got %.3f)" mean) true
    (abs_float mean < 0.2);
  Alcotest.(check bool)
    (Printf.sprintf "variance ~ %.2f (got %.2f)" expect_var var)
    true
    (abs_float (var -. expect_var) < 0.3 *. expect_var);
  (* reference sampler agrees *)
  let ref_m2 = ref 0. in
  for _ = 1 to n do
    let x = float_of_int (Dp.two_sided_geometric rng ~alpha) in
    ref_m2 := !ref_m2 +. (x *. x)
  done;
  let ref_var = !ref_m2 /. float_of_int n in
  Alcotest.(check bool) "reference variance agrees" true
    (abs_float (ref_var -. expect_var) < 0.3 *. expect_var)

let test_dp_publish () =
  let ((afe, cluster) as d) = make_cluster ~num_servers:5 Cl.Robust_snip in
  for i = 0 to 19 do
    ignore (submit_value d ~client_id:i (i mod 8))
  done;
  let alpha = Dp.alpha_of_epsilon ~epsilon:1.0 ~sensitivity:15 in
  let noised = Cl.publish ~dp_alpha:alpha cluster in
  ignore afe;
  (* the noised total should be near the true total of 70 *)
  let total = B.to_int_exn (F.to_bigint noised.(0)) in
  Alcotest.(check bool)
    (Printf.sprintf "noised total near 70 (got %d)" total)
    true
    (abs (total - 70) < 300)

(* Parsers must never crash on attacker-controlled bytes: every outcome is
   a clean parse or Invalid_argument, and the authenticated box rejects
   random packets outright. *)
let test_wire_fuzz () =
  let rng = Rng.of_string_seed "wire-fuzz" in
  for _ = 1 to 500 do
    let len = Rng.int_below rng 200 in
    let junk = Rng.bytes rng len in
    (match W.payload_of_bytes junk with
    | _ -> ()
    | exception Invalid_argument _ -> ());
    (match W.vector_of_bytes junk with
    | _ -> ()
    | exception Invalid_argument _ -> ());
    let key = Prio_crypto.Authbox.derive_key ~client_id:0 ~server_id:0
        ~master:(Bytes.of_string "m") in
    Alcotest.(check bool) "random packet rejected" true
      (Prio_crypto.Authbox.open_ ~key junk = None)
  done

let test_swapped_packets_rejected () =
  (* a client (or the network) delivering server j's packet to server i
     fails authentication at both *)
  let d = make_cluster Cl.Robust_snip in
  Alcotest.(check bool) "swapped packets dropped" false
    (submit_value d ~client_id:5 3 ~tamper:(fun pk ->
         let s = pk.Client.sealed in
         let t = s.(0) in
         s.(0) <- s.(1);
         s.(1) <- t;
         pk))

let test_batch_rotation () =
  (* with a tiny batch size the verifiers resample r repeatedly (App. I);
     honest submissions keep passing and cheaters keep failing across
     batch boundaries *)
  let afe = Sum.sum ~bits:4 in
  let master = Rng.bytes rng 32 in
  let cluster =
    Cl.create ~batch_size:3 ~rng ~mode:Cl.Robust_snip ~circuit:afe.A.circuit
      ~trunc_len:afe.A.trunc_len ~num_servers:3 ~master ()
  in
  for i = 0 to 9 do
    let cheat = i mod 4 = 3 in
    let enc = afe.A.encode ~rng (i mod 16) in
    if cheat then enc.(0) <- F.of_int 999;
    let pk =
      Client.submit ~rng ~mode:(Cl.client_mode cluster) ~num_servers:3
        ~client_id:i ~master enc
    in
    Alcotest.(check bool)
      (Printf.sprintf "submission %d" i)
      (not cheat)
      (Cl.submit cluster ~client_id:i pk)
  done;
  Alcotest.(check int) "several batches elapsed" 4 cluster.Cl.batches;
  Alcotest.(check int) "accepted" 8 cluster.Cl.accepted;
  Alcotest.(check int) "rejected" 2 cluster.Cl.rejected

(* ------------------------ registry & epochs -------------------------- *)

module Reg = Prio_proto.Registry
module Schnorr = Prio_nizk.Schnorr

let test_registry_gating () =
  let reg = Reg.create ~min_contributors:3 in
  let clients =
    List.init 5 (fun id ->
        let sk, pk = Schnorr.keygen rng in
        Reg.register reg ~client_id:id ~public_key:pk;
        (id, sk))
  in
  Alcotest.(check int) "registered" 5 (Reg.num_registered reg);
  let sealed = [| Rng.bytes rng 40; Rng.bytes rng 40 |] in
  let submit (id, sk) =
    let signature =
      Reg.client_sign rng ~secret_key:sk ~client_id:id ~epoch:(Reg.epoch reg) sealed
    in
    Reg.accept_submission reg ~client_id:id ~sealed ~signature
  in
  (* below the threshold: publication gated *)
  Alcotest.(check bool) "c0 accepted" true (submit (List.nth clients 0));
  Alcotest.(check bool) "c1 accepted" true (submit (List.nth clients 1));
  Alcotest.(check bool) "gated at 2 contributors" false (Reg.may_publish reg);
  Alcotest.(check bool) "c2 accepted" true (submit (List.nth clients 2));
  Alcotest.(check bool) "open at 3 contributors" true (Reg.may_publish reg);
  (* one registered client counts once *)
  Alcotest.(check bool) "duplicate contribution refused" false
    (submit (List.nth clients 0));
  Alcotest.(check int) "contributors" 3 (Reg.contributors reg)

let test_registry_rejects () =
  let reg = Reg.create ~min_contributors:1 in
  let sk, pk = Schnorr.keygen rng in
  let mallory_sk, _ = Schnorr.keygen rng in
  Reg.register reg ~client_id:1 ~public_key:pk;
  let sealed = [| Rng.bytes rng 32 |] in
  (* unregistered client *)
  let sig99 = Reg.client_sign rng ~secret_key:sk ~client_id:99 ~epoch:0 sealed in
  Alcotest.(check bool) "unregistered" false
    (Reg.accept_submission reg ~client_id:99 ~sealed ~signature:sig99);
  (* wrong key *)
  let bad = Reg.client_sign rng ~secret_key:mallory_sk ~client_id:1 ~epoch:0 sealed in
  Alcotest.(check bool) "forged signature" false
    (Reg.accept_submission reg ~client_id:1 ~sealed ~signature:bad);
  (* signature over different packets *)
  let other = [| Rng.bytes rng 32 |] in
  let s = Reg.client_sign rng ~secret_key:sk ~client_id:1 ~epoch:0 other in
  Alcotest.(check bool) "packet substitution" false
    (Reg.accept_submission reg ~client_id:1 ~sealed ~signature:s);
  (* stale epoch signature *)
  let s0 = Reg.client_sign rng ~secret_key:sk ~client_id:1 ~epoch:0 sealed in
  Reg.next_epoch reg;
  Alcotest.(check bool) "stale epoch" false
    (Reg.accept_submission reg ~client_id:1 ~sealed ~signature:s0);
  (* fresh epoch signature accepted, and epochs reset contributors *)
  let s1 = Reg.client_sign rng ~secret_key:sk ~client_id:1 ~epoch:1 sealed in
  Alcotest.(check bool) "fresh epoch" true
    (Reg.accept_submission reg ~client_id:1 ~sealed ~signature:s1);
  Reg.next_epoch reg;
  Alcotest.(check int) "contributors reset" 0 (Reg.contributors reg)

(* ---------------- DPF-compressed pipeline (Appendix G) --------------- *)

module Comp = Prio_proto.Compressed.Make (F)

let test_compressed_histogram () =
  let t = Comp.create ~bits:6 in
  let votes = [ 5; 5; 63; 0; 5; 17; 17 ] in
  List.iter (fun v -> ignore (Comp.submit rng t ~value:v)) votes;
  let counts = Array.map (fun x -> B.to_int_exn (F.to_bigint x)) (Comp.publish t) in
  Alcotest.(check int) "bucket 5" 3 counts.(5);
  Alcotest.(check int) "bucket 17" 2 counts.(17);
  Alcotest.(check int) "bucket 63" 1 counts.(63);
  Alcotest.(check int) "bucket 0" 1 counts.(0);
  Alcotest.(check int) "total" 7 (Array.fold_left ( + ) 0 counts)

let test_compressed_bandwidth () =
  let t = Comp.create ~bits:14 in
  let bytes = Comp.submit rng t ~value:1234 in
  let explicit = Comp.explicit_upload_bytes t in
  Alcotest.(check bool)
    (Printf.sprintf "DPF %dB ≪ explicit %dB" bytes explicit)
    true
    (bytes * 200 < explicit)

(* -------------------- threshold (Appendix B) ------------------------- *)

module Th = Prio_proto.Threshold.Make (F)

let test_threshold_aggregation () =
  let t = Th.create ~num_servers:5 ~threshold:3 ~len:4 in
  Alcotest.(check int) "tolerates 2 crashes" 2 (Th.fault_tolerance t);
  Alcotest.(check int) "privacy vs 2 colluders" 2 (Th.privacy_threshold t);
  let truth = Array.make 4 F.zero in
  for _ = 1 to 10 do
    let enc = Array.init 4 (fun _ -> F.of_int (Rng.int_below rng 100)) in
    Array.iteri (fun j v -> truth.(j) <- F.add truth.(j) v) enc;
    Th.submit rng t enc
  done;
  let check_subset servers =
    let got = Th.publish t ~servers in
    Alcotest.(check bool)
      (Printf.sprintf "subset [%s] reconstructs"
         (String.concat ";" (List.map string_of_int servers)))
      true
      (Array.for_all2 F.equal got truth)
  in
  (* any 3 servers suffice — including after "crashing" two *)
  check_subset [ 0; 1; 2 ];
  check_subset [ 2; 3; 4 ];
  check_subset [ 0; 2; 4 ];
  check_subset [ 0; 1; 2; 3; 4 ];
  (* two servers are not enough to even ask *)
  Alcotest.check_raises "too few"
    (Invalid_argument "Threshold.publish: not enough servers") (fun () ->
      ignore (Th.publish t ~servers:[ 0; 1 ]))

(* ------------------------- multicore batches ------------------------- *)

module Par = Prio_proto.Parallel.Make (F)

let test_parallel_matches_serial () =
  let afe = Sum.sum ~bits:4 in
  let master = Rng.bytes rng 32 in
  (* batch_size 4 forces several batch-secret rotations inside the run, so
     the merged rotation counters are exercised end to end *)
  let make_replica () =
    Cl.create ~batch_size:4 ~rng:(Rng.split rng) ~mode:Cl.Robust_snip
      ~circuit:afe.A.circuit ~trunc_len:afe.A.trunc_len ~num_servers:3 ~master
      ()
  in
  (* 20 submissions, 5 of them malformed *)
  let packets =
    Array.init 20 (fun i ->
        let enc = afe.A.encode ~rng (i mod 16) in
        if i mod 4 = 3 then enc.(0) <- F.of_int 999;
        let pk =
          Client.submit ~rng ~mode:(Client.Robust_snip afe.A.circuit)
            ~num_servers:3 ~client_id:i ~master enc
        in
        (i, pk))
  in
  let expected_total =
    List.fold_left ( + ) 0
      (List.filter_map
         (fun i -> if i mod 4 = 3 then None else Some (i mod 16))
         (List.init 20 Fun.id))
  in
  (* plain sequential reference: every observable below must match it *)
  let serial = make_replica () in
  Array.iter (fun (id, pk) -> ignore (Cl.submit serial ~client_id:id pk)) packets;
  let serial_links = Array.map Array.copy serial.Cl.links in
  let serial_total = afe.A.decode ~n:serial.Cl.accepted (Cl.publish serial) in
  Alcotest.(check string) "serial aggregate" (string_of_int expected_total)
    (B.to_string serial_total);
  List.iter
    (fun domains ->
      let merged, accepted = Par.process ~make_replica ~domains packets in
      Alcotest.(check int)
        (Printf.sprintf "accepted (%d domains)" domains)
        serial.Cl.accepted accepted;
      Alcotest.(check int) "counters merged" serial.Cl.accepted
        merged.Cl.accepted;
      Alcotest.(check int) "rejections merged" serial.Cl.rejected
        merged.Cl.rejected;
      Alcotest.(check int)
        (Printf.sprintf "batches (%d domains)" domains)
        serial.Cl.batches merged.Cl.batches;
      Alcotest.(check int)
        (Printf.sprintf "processed_in_batch (%d domains)" domains)
        serial.Cl.processed_in_batch merged.Cl.processed_in_batch;
      Alcotest.(check int)
        (Printf.sprintf "next_leader (%d domains)" domains)
        serial.Cl.next_leader merged.Cl.next_leader;
      Array.iteri
        (fun i row ->
          Alcotest.(check (array int))
            (Printf.sprintf "link bytes from server %d (%d domains)" i domains)
            serial_links.(i) row)
        merged.Cl.links;
      let total = afe.A.decode ~n:accepted (Cl.publish merged) in
      Alcotest.(check string)
        (Printf.sprintf "aggregate (%d domains)" domains)
        (string_of_int expected_total)
        (B.to_string total))
    [ 1; 2; 4 ]

let test_merge_rotation () =
  (* regression: merge_into used to drop processed_in_batch/batches, so a
     merged cluster under-counted rotations and kept stale batch secrets.
     Two replicas fed 4 + 6 submissions at batch_size 3 must merge to the
     exact rotation state of one cluster that saw all 10. *)
  let afe = Sum.sum ~bits:4 in
  let master = Rng.bytes rng 32 in
  let mk () =
    Cl.create ~batch_size:3 ~rng:(Rng.split rng) ~mode:Cl.Robust_snip
      ~circuit:afe.A.circuit ~trunc_len:afe.A.trunc_len ~num_servers:3 ~master
      ()
  in
  let packets =
    Array.init 10 (fun i ->
        let enc = afe.A.encode ~rng (i mod 16) in
        ( i,
          Client.submit ~rng ~mode:(Client.Robust_snip afe.A.circuit)
            ~num_servers:3 ~client_id:i ~master enc ))
  in
  let seq = mk () in
  Array.iter (fun (id, pk) -> ignore (Cl.submit seq ~client_id:id pk)) packets;
  Alcotest.(check int) "sequential batches" 4 seq.Cl.batches;
  Alcotest.(check int) "sequential carry" 1 seq.Cl.processed_in_batch;
  let a = mk () and b = mk () in
  Array.iteri
    (fun i (id, pk) ->
      let c = if i < 4 then a else b in
      (* seed the leader the way Parallel does, from the global index *)
      c.Cl.next_leader <- i mod c.Cl.s;
      ignore (Cl.submit c ~client_id:id pk))
    packets;
  Cl.merge_into ~dst:a b;
  Alcotest.(check int) "merged accepted" seq.Cl.accepted a.Cl.accepted;
  Alcotest.(check int) "merged batches" seq.Cl.batches a.Cl.batches;
  Alcotest.(check int) "merged processed_in_batch" seq.Cl.processed_in_batch
    a.Cl.processed_in_batch;
  Alcotest.(check int) "merged next_leader" seq.Cl.next_leader a.Cl.next_leader;
  Array.iteri
    (fun i row ->
      Alcotest.(check (array int))
        (Printf.sprintf "merged link bytes from server %d" i)
        seq.Cl.links.(i) row)
    a.Cl.links;
  let total = afe.A.decode ~n:a.Cl.accepted (Cl.publish a) in
  let expected = List.fold_left ( + ) 0 (List.init 10 (fun i -> i mod 16)) in
  Alcotest.(check string) "merged aggregate" (string_of_int expected)
    (B.to_string total)

(* ----------------------- streaming epochs ---------------------------- *)

let epoch_packets afe master n =
  Array.init n (fun i ->
      let enc = afe.A.encode ~rng (i mod 16) in
      ( i,
        Client.submit ~rng ~mode:(Client.Robust_snip afe.A.circuit)
          ~num_servers:3 ~client_id:i ~master enc ))

let test_epoch_rotation_flat_memory () =
  (* with epoch_size set, per-submission state (replay nonces + verdicts)
     is bounded by 2 * s * epoch_size no matter how long the stream runs
     — two generations, since a closed epoch lingers one more epoch as
     replay grace — while accumulators and counters keep the history *)
  let afe = Sum.sum ~bits:4 in
  let master = Rng.bytes rng 32 in
  let cluster =
    Cl.create ~epoch_size:4 ~rng ~mode:Cl.Robust_snip ~circuit:afe.A.circuit
      ~trunc_len:afe.A.trunc_len ~num_servers:3 ~master ()
  in
  let bound = 2 * 3 * 4 in
  Array.iter
    (fun (id, pk) ->
      Alcotest.(check bool) (Printf.sprintf "accepted %d" id) true
        (Cl.submit cluster ~client_id:id pk);
      Alcotest.(check bool)
        (Printf.sprintf "resident bounded after %d" id)
        true
        (Cl.resident_entries cluster <= bound))
    (epoch_packets afe master 12);
  Alcotest.(check int) "three epochs closed" 3 cluster.Cl.epoch;
  (* at the boundary only the grace generation remains: the epoch that
     just closed (4 submissions x 3 servers), not the one before it *)
  Alcotest.(check int) "only the grace generation at boundary" 12
    (Cl.resident_entries cluster);
  Alcotest.(check int) "accepted survives rotation" 12 cluster.Cl.accepted;
  let total = afe.A.decode ~n:cluster.Cl.accepted (Cl.publish cluster) in
  let expected = List.fold_left ( + ) 0 (List.init 12 (fun i -> i mod 16)) in
  Alcotest.(check string) "aggregate survives rotation"
    (string_of_int expected) (B.to_string total)

let test_epoch_replay_scope () =
  (* replay protection outlives the epoch that saw the nonce by exactly
     one generation: a duplicate inside the epoch is dropped, a replay
     across ONE rotation is still dropped (the grace generation — this
     is what makes a retry that straddles a rotation safe to dedup), and
     only after crossing TWO rotations is the packet re-admitted *)
  let afe = Sum.sum ~bits:4 in
  let master = Rng.bytes rng 32 in
  let cluster =
    Cl.create ~rng ~mode:Cl.Robust_snip ~circuit:afe.A.circuit
      ~trunc_len:afe.A.trunc_len ~num_servers:3 ~master ()
  in
  let enc = afe.A.encode ~rng 5 in
  let pk =
    Client.submit ~rng ~mode:(Client.Robust_snip afe.A.circuit) ~num_servers:3
      ~client_id:1 ~master enc
  in
  Alcotest.(check bool) "first accepted" true (Cl.submit cluster ~client_id:1 pk);
  Alcotest.(check bool) "replay dropped" false
    (Cl.submit cluster ~client_id:1 pk);
  Alcotest.(check bool) "nonces resident" true
    (Cl.resident_entries cluster > 0);
  Cl.rotate_epoch cluster;
  Alcotest.(check bool) "grace generation retained" true
    (Cl.resident_entries cluster > 0);
  Alcotest.(check int) "epoch advanced" 1 cluster.Cl.epoch;
  Alcotest.(check bool) "replay across one rotation still dropped" false
    (Cl.submit cluster ~client_id:1 pk);
  Cl.rotate_epoch cluster;
  Alcotest.(check int) "tables dropped after two rotations" 0
    (Cl.resident_entries cluster);
  Alcotest.(check bool) "re-admitted after two rotations" true
    (Cl.submit cluster ~client_id:1 pk);
  Alcotest.(check int) "both contributions kept" 2 cluster.Cl.accepted

let test_merge_epoch_counters () =
  (* replica merge must land on the same epoch counters as a sequential
     run over the union, clearing tables when the merge crosses an epoch
     boundary — the same total-derivation rule as batch rotation *)
  let afe = Sum.sum ~bits:4 in
  let master = Rng.bytes rng 32 in
  let mk () =
    Cl.create ~batch_size:3 ~epoch_size:3 ~rng:(Rng.split rng)
      ~mode:Cl.Robust_snip ~circuit:afe.A.circuit ~trunc_len:afe.A.trunc_len
      ~num_servers:3 ~master ()
  in
  let packets = epoch_packets afe master 10 in
  let seq = mk () in
  Array.iter (fun (id, pk) -> ignore (Cl.submit seq ~client_id:id pk)) packets;
  Alcotest.(check int) "sequential epochs" 3 seq.Cl.epoch;
  Alcotest.(check int) "sequential carry" 1 seq.Cl.submissions_in_epoch;
  let a = mk () and b = mk () in
  Array.iteri
    (fun i (id, pk) ->
      let c = if i < 4 then a else b in
      c.Cl.next_leader <- i mod c.Cl.s;
      ignore (Cl.submit c ~client_id:id pk))
    packets;
  Cl.merge_into ~dst:a b;
  Alcotest.(check int) "merged epoch" seq.Cl.epoch a.Cl.epoch;
  Alcotest.(check int) "merged submissions_in_epoch"
    seq.Cl.submissions_in_epoch a.Cl.submissions_in_epoch;
  (* the merge crossed a boundary (a held epoch 1, merged is 3): replica
     tables from closed epochs must be gone *)
  Alcotest.(check int) "tables cleared on crossing" 0
    (Cl.resident_entries a);
  Array.iter
    (fun srv ->
      Alcotest.(check int) "server epoch synced" seq.Cl.epoch
        srv.Cl.Server.epoch)
    a.Cl.servers;
  let total = afe.A.decode ~n:a.Cl.accepted (Cl.publish a) in
  let expected = List.fold_left ( + ) 0 (List.init 10 (fun i -> i mod 16)) in
  Alcotest.(check string) "merged aggregate" (string_of_int expected)
    (B.to_string total)

(* --------------------------- NIZK pipeline --------------------------- *)

let test_nizk_pipeline () =
  let module NP = Prio_proto.Pipeline.Nizk_pipeline in
  let bits = Array.init 8 (fun _ -> Rng.int_below rng 2) in
  let sub = NP.client ~rng ~bits ~s:3 in
  Alcotest.(check bool) "honest verifies" true (NP.server_process ~s:3 sub);
  (* shares reconstruct the bits *)
  Array.iteri
    (fun j bit ->
      let total = ref B.zero in
      for i = 0 to 2 do
        total := B.erem (B.add !total sub.NP.x_shares.(i).(j)) Prio_nizk.Group.q
      done;
      Alcotest.(check bool) "share sum = bit" true (B.equal !total (B.of_int bit)))
    bits;
  (* tampering with a share breaks consistency *)
  sub.NP.x_shares.(0).(0) <- B.succ sub.NP.x_shares.(0).(0);
  Alcotest.(check bool) "inconsistent share detected" false
    (NP.server_process ~s:3 sub);
  Alcotest.(check bool) "per-server bytes grow with l" true
    (NP.per_server_bytes ~l:1024 > 100 * NP.per_server_bytes ~l:4)

let () =
  Alcotest.run "proto"
    [
      ( "wire",
        [
          Alcotest.test_case "vectors" `Quick test_wire_vector;
          Alcotest.test_case "payloads" `Quick test_wire_payload;
          Alcotest.test_case "client packets known answer" `Quick
            test_client_packets_known_answer;
          Alcotest.test_case "health record JSON" `Quick test_health_json;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "aggregates in all modes" `Quick test_cluster_modes_aggregate;
          Alcotest.test_case "rejects cheaters" `Quick test_cluster_rejects_cheater;
          Alcotest.test_case "replay and forgery" `Quick test_cluster_replay_and_forgery;
          Alcotest.test_case "byte accounting shapes" `Quick test_byte_accounting_shapes;
          Alcotest.test_case "mpc wire sizes pinned" `Quick test_mpc_sizes_pinned;
          Alcotest.test_case "no-privacy single server" `Quick test_no_privacy_single_server;
          Alcotest.test_case "pipeline helpers" `Quick test_pipeline_helpers;
          Alcotest.test_case "upload compression" `Quick test_upload_compression;
          Alcotest.test_case "batch rotation (App. I)" `Quick test_batch_rotation;
          Alcotest.test_case "wire fuzzing" `Quick test_wire_fuzz;
          Alcotest.test_case "swapped packets" `Quick test_swapped_packets_rejected;
          Alcotest.test_case "epoch rotation keeps memory flat" `Quick
            test_epoch_rotation_flat_memory;
          Alcotest.test_case "replay scope is the epoch" `Quick
            test_epoch_replay_scope;
        ] );
      ( "differential privacy",
        [
          Alcotest.test_case "noise moments" `Slow test_dp_moments;
          Alcotest.test_case "noised publish" `Quick test_dp_publish;
        ] );
      ( "registry",
        [
          Alcotest.test_case "gated publication" `Quick test_registry_gating;
          Alcotest.test_case "rejections" `Quick test_registry_rejects;
        ] );
      ( "threshold (App. B)",
        [ Alcotest.test_case "k-of-s aggregation" `Quick test_threshold_aggregation ] );
      ( "compressed (App. G)",
        [
          Alcotest.test_case "dpf histogram" `Quick test_compressed_histogram;
          Alcotest.test_case "bandwidth" `Quick test_compressed_bandwidth;
        ] );
      ( "multicore",
        [
          Alcotest.test_case "parallel = serial" `Quick
            test_parallel_matches_serial;
          Alcotest.test_case "merge carries rotation state" `Quick
            test_merge_rotation;
          Alcotest.test_case "merge carries epoch counters" `Quick
            test_merge_epoch_counters;
        ] );
      ("nizk pipeline", [ Alcotest.test_case "end to end" `Quick test_nizk_pipeline ]);
    ]
