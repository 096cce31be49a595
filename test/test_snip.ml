(* SNIP tests — the paper's §4 and Appendix D.

   Correctness: honest clients are always accepted, over several fields,
   circuit shapes and server counts. Soundness: a battery of cheating
   strategies (bad inputs, tampered proof components, malformed Beaver
   triples, post-hoc share tampering) must all be rejected. Zero-knowledge:
   statistical sanity checks that the values servers exchange are
   independent of the client's input. *)

module Rng = Prio_crypto.Rng
open Prio_field

module Suite (F : Field_intf.S) = struct
  module S = Prio_snip.Snip.Make (F)
  module M = Prio_snip.Mpc.Make (F)
  module C = S.C
  module Sh = Prio_share.Share.Make (F)

  let rng = Rng.of_string_seed ("snip-tests-" ^ F.name)

  let bits_circuit l =
    let b = C.Builder.create ~num_inputs:l in
    for i = 0 to l - 1 do
      C.Builder.assert_bit b (C.Builder.input b i)
    done;
    C.Builder.build b

  (* affine-only circuit: x0 + 2*x1 = x2, no mul gates *)
  let affine_circuit () =
    let b = C.Builder.create ~num_inputs:3 in
    let lhs =
      C.Builder.add b (C.Builder.input b 0)
        (C.Builder.scale b F.two (C.Builder.input b 1))
    in
    C.Builder.assert_zero b (C.Builder.sub b lhs (C.Builder.input b 2));
    C.Builder.build b

  let random_bits l = Array.init l (fun _ -> F.of_int (Rng.int_below rng 2))

  let test_grid_sizes () =
    Alcotest.(check int) "M=0 grid" 0 (S.grid_size (affine_circuit ()));
    Alcotest.(check int) "M=1 grid" 2 (S.grid_size (bits_circuit 1));
    Alcotest.(check int) "M=3 grid" 4 (S.grid_size (bits_circuit 3));
    Alcotest.(check int) "M=4 grid" 8 (S.grid_size (bits_circuit 4));
    Alcotest.(check int) "M=7 grid" 8 (S.grid_size (bits_circuit 7));
    Alcotest.(check int) "proof elements M=7" (2 + 16 + 3)
      (S.proof_num_elements (bits_circuit 7));
    Alcotest.(check int) "proof elements M=0" 0
      (S.proof_num_elements (affine_circuit ()))

  (* The prover's h-points are f·g on the 2N-grid. It gets them from the
     even points' products and one coset transform per polynomial; the
     reference multiplies in coefficient space, zero-pads and transforms
     on the 2N-grid. Pinned for every grid size 2..1024. *)
  let test_h_points_match_reference () =
    let module N = Prio_poly.Ntt.Make (F) in
    List.iter
      (fun n ->
        let circuit = bits_circuit (n - 1) in
        Alcotest.(check int) "grid" n (S.grid_size circuit);
        let inputs = random_bits (n - 1) in
        let _, pairs = C.eval_mul_pairs circuit ~inputs in
        let pv = S.proof_vector ~rng ~circuit ~inputs in
        let u = Array.make n F.zero and v = Array.make n F.zero in
        u.(0) <- pv.(0);
        v.(0) <- pv.(1);
        Array.iteri
          (fun t (ut, vt) ->
            u.(t + 1) <- ut;
            v.(t + 1) <- vt)
          pairs;
        let h = N.mul (N.intt u) (N.intt v) in
        let expected = N.ntt (Array.append h [| F.zero |]) in
        Alcotest.(check bool)
          (Printf.sprintf "h-points on the %d-grid" (2 * n))
          true
          (Array.for_all2 F.equal expected (Array.sub pv 2 (2 * n))))
      [ 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]

  let test_completeness () =
    List.iter
      (fun (l, s) ->
        let circuit = bits_circuit l in
        let ctx = S.make_batch_ctx ~rng ~circuit ~num_servers:s in
        for _ = 1 to 5 do
          let x = random_bits l in
          let subs = S.prove ~rng ~circuit ~num_servers:s ~inputs:x in
          Alcotest.(check bool)
            (Printf.sprintf "accepts honest (l=%d s=%d)" l s)
            true
            (S.verify_all ctx subs)
        done)
      [ (1, 2); (1, 5); (4, 2); (13, 3); (32, 5); (100, 2) ]

  (* A circuit is proved and verified as given. The builder's bit
     circuit asserted twice keeps both copies' mul gates (an optimizer
     would fold them into one), so its proof is sized by the raw M, and
     an honest input over it is still accepted. *)
  let test_circuit_as_given () =
    let l = 5 in
    let raw = bits_circuit l in
    let circuit = C.union raw raw in
    Alcotest.(check int) "raw M" (2 * l) (C.num_mul_gates circuit);
    (* M = 10: N = 16 covers the M + 1 slots *)
    Alcotest.(check int) "proof sized by raw M" (2 + (2 * 16) + 3)
      (S.proof_num_elements circuit);
    let ctx = S.make_batch_ctx ~rng ~circuit ~num_servers:3 in
    let subs = S.prove ~rng ~circuit ~num_servers:3 ~inputs:(random_bits l) in
    Alcotest.(check bool) "honest accepted" true (S.verify_all ctx subs)

  let test_completeness_affine () =
    let circuit = affine_circuit () in
    let ctx = S.make_batch_ctx ~rng ~circuit ~num_servers:3 in
    let good = [| F.of_int 5; F.of_int 7; F.of_int 19 |] in
    let subs = S.prove ~rng ~circuit ~num_servers:3 ~inputs:good in
    Alcotest.(check bool) "affine honest accepted" true (S.verify_all ctx subs);
    let bad = [| F.of_int 5; F.of_int 7; F.of_int 18 |] in
    let subs = S.prove ~rng ~circuit ~num_servers:3 ~inputs:bad in
    Alcotest.(check bool) "affine violation rejected" false (S.verify_all ctx subs)

  let test_batch_ctx_reuse () =
    (* one context must serve a whole batch, mixing honest and cheating *)
    let circuit = bits_circuit 8 in
    let ctx = S.make_batch_ctx ~rng ~circuit ~num_servers:4 in
    for i = 1 to 20 do
      let x = random_bits 8 in
      let honest = i mod 3 <> 0 in
      if not honest then x.(0) <- F.of_int 5;
      let subs = S.prove ~rng ~circuit ~num_servers:4 ~inputs:x in
      Alcotest.(check bool) (Printf.sprintf "submission %d" i) honest
        (S.verify_all ctx subs)
    done

  let test_soundness_bad_input () =
    let circuit = bits_circuit 10 in
    let ctx = S.make_batch_ctx ~rng ~circuit ~num_servers:3 in
    for _ = 1 to 10 do
      let x = random_bits 10 in
      x.(Rng.int_below rng 10) <- F.add F.two (F.random rng);
      (* could be a bit again by chance: skip if so *)
      let bad = not (C.valid circuit ~inputs:x) in
      if bad then begin
        let subs = S.prove ~rng ~circuit ~num_servers:3 ~inputs:x in
        Alcotest.(check bool) "rejects invalid input" false (S.verify_all ctx subs)
      end
    done

  let test_soundness_tampered_proof () =
    let circuit = bits_circuit 9 in
    let ctx = S.make_batch_ctx ~rng ~circuit ~num_servers:3 in
    let fresh () =
      S.prove ~rng ~circuit ~num_servers:3 ~inputs:(random_bits 9)
    in
    (* each tamper mutates server 0's share so the *sum* is wrong *)
    let tampering =
      [
        ( "h point",
          fun subs ->
            subs.(0).S.proof.S.h_points.(5) <-
              F.add subs.(0).S.proof.S.h_points.(5) F.one );
        ( "f0 mask",
          fun subs ->
            subs.(0) <-
              { (subs.(0)) with
                S.proof = { (subs.(0).S.proof) with S.f0 = F.add subs.(0).S.proof.S.f0 F.one } } );
        ( "g0 mask",
          fun subs ->
            subs.(0) <-
              { (subs.(0)) with
                S.proof = { (subs.(0).S.proof) with S.g0 = F.add subs.(0).S.proof.S.g0 F.one } } );
        ( "triple c",
          fun subs ->
            subs.(0) <-
              { (subs.(0)) with
                S.proof = { (subs.(0).S.proof) with S.c = F.add subs.(0).S.proof.S.c F.one } } );
        ( "triple a",
          fun subs ->
            subs.(0) <-
              { (subs.(0)) with
                S.proof = { (subs.(0).S.proof) with S.a = F.add subs.(0).S.proof.S.a (F.random rng) } } );
        ( "x share",
          fun subs -> subs.(0).S.x_share.(3) <- F.add subs.(0).S.x_share.(3) F.one );
      ]
    in
    List.iter
      (fun (name, tamper) ->
        (* a tamper can pass only with negligible probability; run 5 trials *)
        for _ = 1 to 5 do
          let subs = fresh () in
          tamper subs;
          Alcotest.(check bool) ("rejects tampered " ^ name) false
            (S.verify_all ctx subs)
        done)
      tampering

  let test_soundness_zero_proof () =
    (* a lazy cheater sending all-zero proof material with a bad input *)
    let circuit = bits_circuit 6 in
    let ctx = S.make_batch_ctx ~rng ~circuit ~num_servers:2 in
    let x = Array.make 6 (F.of_int 3) in
    let x_shares = Sh.split_vector rng ~s:2 x in
    let n = S.grid_size circuit in
    let zero_proof =
      { S.f0 = F.zero; g0 = F.zero; h_points = Array.make (2 * n) F.zero;
        a = F.zero; b = F.zero; c = F.zero }
    in
    let subs =
      Array.map (fun x_share -> { S.x_share; proof = zero_proof }) x_shares
    in
    Alcotest.(check bool) "rejects zero proof" false (S.verify_all ctx subs)

  let test_vector_roundtrip () =
    let circuit = bits_circuit 5 in
    let x = random_bits 5 in
    let subs = S.prove ~rng ~circuit ~num_servers:3 ~inputs:x in
    Array.iter
      (fun sub ->
        let v = S.vector_of_submission sub in
        let sub' = S.submission_of_vector circuit v in
        Alcotest.(check bool) "x roundtrip" true
          (Array.for_all2 F.equal sub.S.x_share sub'.S.x_share);
        Alcotest.(check bool) "h roundtrip" true
          (Array.for_all2 F.equal sub.S.proof.S.h_points sub'.S.proof.S.h_points);
        Alcotest.(check bool) "triple roundtrip" true
          (F.equal sub.S.proof.S.c sub'.S.proof.S.c))
      subs;
    Alcotest.(check bool) "bad length rejected" true
      (match S.submission_of_vector circuit [| F.one |] with
      | exception Invalid_argument _ -> true
      | _ -> false)

  (* Zero-knowledge sanity: the openings (d, e) that hit the wire must look
     uniform and, in particular, must not depend on the client's input. We
     run the protocol on the all-zeros and all-ones inputs many times and
     check all observed d values are distinct (they are masked by the fresh
     random a each run). *)
  let test_zk_openings_masked () =
    let circuit = bits_circuit 8 in
    let ctx = S.make_batch_ctx ~rng ~circuit ~num_servers:2 in
    let observe inputs =
      let subs = S.prove ~rng ~circuit ~num_servers:2 ~inputs in
      let states = Array.map (S.server_prepare ctx) subs in
      let d =
        Array.fold_left (fun acc (_, o) -> F.add acc o.S.d) F.zero states
      in
      Alcotest.(check bool) "accepts" true (S.verify_all ctx subs);
      F.to_string d
    in
    let seen = Hashtbl.create 64 in
    for _ = 1 to 20 do
      Hashtbl.replace seen (observe (Array.make 8 F.zero)) ();
      Hashtbl.replace seen (observe (Array.make 8 F.one)) ()
    done;
    Alcotest.(check int) "all openings distinct" 40 (Hashtbl.length seen)

  (* With randomized f(0)/g(0) the share of f(r) held by one server is
     uniform; check spread. *)
  let test_zk_share_spread () =
    let circuit = bits_circuit 4 in
    let ctx = S.make_batch_ctx ~rng ~circuit ~num_servers:2 in
    let seen = Hashtbl.create 64 in
    let x = [| F.one; F.zero; F.one; F.one |] in
    for _ = 1 to 30 do
      let subs = S.prove ~rng ~circuit ~num_servers:2 ~inputs:x in
      let st, _ = S.server_prepare ctx subs.(0) in
      Hashtbl.replace seen (F.to_string st.S.fr) ()
    done;
    Alcotest.(check int) "f(r) shares distinct" 30 (Hashtbl.length seen)

  (* ------------------------- reference SNIP ------------------------- *)

  module Ref = Prio_snip.Reference.Make (F)

  (* The paper-literal construction (Lagrange on points 0..M, coefficient-
     form h) must agree with the optimized NTT/fixed-point path on both
     acceptance and rejection. *)
  let test_reference_cross_check () =
    List.iter
      (fun l ->
        let circuit = bits_circuit l in
        let ctx = S.make_batch_ctx ~rng ~circuit ~num_servers:3 in
        for _ = 1 to 5 do
          let x = random_bits l in
          let honest = Rng.bool rng in
          if not honest then x.(Rng.int_below rng l) <- F.of_int 7;
          let opt = S.verify_all ctx (S.prove ~rng ~circuit ~num_servers:3 ~inputs:x) in
          let ref_ =
            Ref.verify ~rng circuit (Ref.prove ~rng ~circuit ~num_servers:3 ~inputs:x)
          in
          Alcotest.(check bool) "optimized = paper-literal" opt ref_;
          Alcotest.(check bool) "both match ground truth" (C.valid circuit ~inputs:x) opt
        done)
      [ 1; 3; 8 ]

  let test_reference_affine () =
    let circuit = affine_circuit () in
    let good = [| F.of_int 5; F.of_int 7; F.of_int 19 |] in
    Alcotest.(check bool) "affine accepted" true
      (Ref.verify ~rng circuit (Ref.prove ~rng ~circuit ~num_servers:2 ~inputs:good));
    let bad = [| F.of_int 5; F.of_int 7; F.of_int 18 |] in
    Alcotest.(check bool) "affine rejected" false
      (Ref.verify ~rng circuit (Ref.prove ~rng ~circuit ~num_servers:2 ~inputs:bad))

  (* ----------------------------- Prio-MPC --------------------------- *)

  let test_mpc_eval_matches_plain () =
    for _ = 1 to 10 do
      let l = 1 + Rng.int_below rng 10 in
      let circuit = bits_circuit l in
      let x = random_bits l in
      let s = 2 + Rng.int_below rng 3 in
      let xs = Sh.split_vector rng ~s x in
      let m = C.num_mul_gates circuit in
      let triples = M.gen_triples ~rng ~s ~m in
      let wires, stats = M.eval circuit ~inputs:xs ~triples in
      let plain = C.eval_wires circuit ~inputs:x in
      Array.iteri
        (fun w expected ->
          let total =
            Array.fold_left (fun acc sw -> F.add acc sw.(w)) F.zero wires
          in
          Alcotest.(check bool) "wire matches" true (F.equal total expected))
        plain;
      Alcotest.(check int) "one round per mul" m stats.M.rounds;
      Alcotest.(check int) "broadcast elements" (2 * m)
        stats.M.elements_broadcast_per_server
    done

  let test_mpc_decide () =
    let circuit = bits_circuit 7 in
    let m = C.num_mul_gates circuit in
    let run x =
      let xs = Sh.split_vector rng ~s:3 x in
      let triples = M.gen_triples ~rng ~s:3 ~m in
      let wires, _ = M.eval circuit ~inputs:xs ~triples in
      M.decide ~rng circuit wires
    in
    Alcotest.(check bool) "valid accepted" true (run (random_bits 7));
    let bad = random_bits 7 in
    bad.(2) <- F.of_int 5;
    Alcotest.(check bool) "invalid rejected" false (run bad)

  let test_mpc_triple_circuit () =
    let m = 6 in
    let tc = M.triple_circuit ~m in
    Alcotest.(check int) "inputs" (3 * m) (C.num_inputs tc);
    Alcotest.(check int) "mul gates" m (C.num_mul_gates tc);
    (* valid triples accepted, broken ones rejected *)
    let a = Array.init m (fun _ -> F.random rng) in
    let b = Array.init m (fun _ -> F.random rng) in
    let c = Array.map2 F.mul a b in
    let good = Array.concat [ a; b; c ] in
    Alcotest.(check bool) "good triples" true (C.valid tc ~inputs:good);
    let bad = Array.copy good in
    bad.((2 * m) + 3) <- F.add bad.((2 * m) + 3) F.one;
    Alcotest.(check bool) "bad triples" false (C.valid tc ~inputs:bad);
    (* and the SNIP over the triple circuit enforces it end-to-end *)
    let ctx = S.make_batch_ctx ~rng ~circuit:tc ~num_servers:2 in
    let subs = S.prove ~rng ~circuit:tc ~num_servers:2 ~inputs:good in
    Alcotest.(check bool) "snip accepts good triples" true (S.verify_all ctx subs);
    let subs = S.prove ~rng ~circuit:tc ~num_servers:2 ~inputs:bad in
    Alcotest.(check bool) "snip rejects bad triples" false (S.verify_all ctx subs)

  let tests =
    [
      Alcotest.test_case (F.name ^ ": grid sizes") `Quick test_grid_sizes;
      Alcotest.test_case (F.name ^ ": h-points match reference") `Quick
        test_h_points_match_reference;
      Alcotest.test_case (F.name ^ ": completeness") `Quick test_completeness;
      Alcotest.test_case (F.name ^ ": affine circuits") `Quick test_completeness_affine;
      Alcotest.test_case (F.name ^ ": circuit taken as given") `Quick
        test_circuit_as_given;
      Alcotest.test_case (F.name ^ ": batch reuse") `Quick test_batch_ctx_reuse;
      Alcotest.test_case (F.name ^ ": rejects bad input") `Quick test_soundness_bad_input;
      Alcotest.test_case (F.name ^ ": rejects tampered proofs") `Quick
        test_soundness_tampered_proof;
      Alcotest.test_case (F.name ^ ": rejects zero proof") `Quick test_soundness_zero_proof;
      Alcotest.test_case (F.name ^ ": vector roundtrip") `Quick test_vector_roundtrip;
      Alcotest.test_case (F.name ^ ": zk openings masked") `Quick test_zk_openings_masked;
      Alcotest.test_case (F.name ^ ": zk share spread") `Quick test_zk_share_spread;
      Alcotest.test_case (F.name ^ ": reference cross-check") `Quick
        test_reference_cross_check;
      Alcotest.test_case (F.name ^ ": reference affine") `Quick test_reference_affine;
      Alcotest.test_case (F.name ^ ": mpc eval") `Quick test_mpc_eval_matches_plain;
      Alcotest.test_case (F.name ^ ": mpc decide") `Quick test_mpc_decide;
      Alcotest.test_case (F.name ^ ": mpc triple circuit") `Quick test_mpc_triple_circuit;
    ]
end

module S1 = Suite (Babybear)
module S2 = Suite (F87)
module S3 = Suite (F265)

(* --------------- property: random circuits, random inputs ------------ *)

(* Build a random circuit over F87 and random inputs, then check the SNIP
   decision equals ground truth (Valid evaluated in the clear) for every
   server count in 2..5. Covers arbitrary interleavings of gate types,
   mul-gate fan-in from any earlier wire, and both accept and reject
   paths. *)
module PF = Prio_field.F87
module PS = Prio_snip.Snip.Make (PF)
module PC = PS.C

let random_circuit_case =
  let rng = Rng.of_string_seed "snip-random-circuits" in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random circuits: snip = ground truth" ~count:60
       QCheck2.Gen.unit
       (fun () ->
         let num_inputs = 1 + Rng.int_below rng 6 in
         let b = PC.Builder.create ~num_inputs in
         let wires = ref (List.init num_inputs (fun i -> PC.Builder.input b i)) in
         let pick () = List.nth !wires (Rng.int_below rng (List.length !wires)) in
         for _ = 1 to 2 + Rng.int_below rng 15 do
           let w =
             match Rng.int_below rng 6 with
             | 0 -> PC.Builder.add b (pick ()) (pick ())
             | 1 -> PC.Builder.sub b (pick ()) (pick ())
             | 2 -> PC.Builder.mul b (pick ()) (pick ())
             | 3 -> PC.Builder.scale b (PF.of_int (Rng.int_below rng 50)) (pick ())
             | 4 -> PC.Builder.add_const b (PF.of_int (Rng.int_below rng 50)) (pick ())
             | _ -> PC.Builder.const b (PF.of_int (Rng.int_below rng 50))
           in
           wires := w :: !wires
         done;
         (* a couple of assert-zero constraints over random wire pairs: the
            difference of a wire with itself is always satisfiable; also an
            often-unsatisfied random constraint *)
         let w = pick () in
         PC.Builder.assert_zero b (PC.Builder.sub b w w);
         if Rng.bool rng then PC.Builder.assert_zero b (pick ());
         let circuit = PC.Builder.build b in
         let inputs =
           Array.init num_inputs (fun _ -> PF.of_int (Rng.int_below rng 4))
         in
         let truth = PC.valid circuit ~inputs in
         List.for_all
           (fun s ->
             let ctx = PS.make_batch_ctx ~rng ~circuit ~num_servers:s in
             let subs = PS.prove ~rng ~circuit ~num_servers:s ~inputs in
             PS.verify_all ctx subs = truth)
           [ 2; 3; 5 ]))

(* --------------------- operation counts (Table 2) -------------------- *)

module CF = Counting.Make (Babybear)
module CS = Prio_snip.Snip.Make (CF)

(* Empirically confirm Table 2's asymptotic rows: the SNIP prover performs
   Θ(M log M) field multiplications (and no group exponentiations at all —
   there is no group in sight), and verification per server is Θ(M). *)
let test_table2_op_counts () =
  let rng = Rng.of_string_seed "table2-ops" in
  let prove_muls m =
    let b = CS.C.Builder.create ~num_inputs:m in
    for i = 0 to m - 1 do
      CS.C.Builder.assert_bit b (CS.C.Builder.input b i)
    done;
    let circuit = CS.C.Builder.build b in
    let inputs = Array.init m (fun _ -> CF.of_int (Prio_crypto.Rng.int_below rng 2)) in
    CF.reset ();
    ignore (CS.prove ~rng ~circuit ~num_servers:2 ~inputs);
    Counting.(CF.stats.muls)
  in
  let m1 = prove_muls 64 and m2 = prove_muls 256 and m3 = prove_muls 1024 in
  (* quadrupling M must grow the mul count by ~4x-5x (M log M), never ~16x
     (M^2): allow [3.5, 7] per quadrupling *)
  let ratio a b = float_of_int b /. float_of_int a in
  Alcotest.(check bool)
    (Printf.sprintf "64->256 ratio %.1f in M log M band" (ratio m1 m2))
    true
    (ratio m1 m2 > 3.5 && ratio m1 m2 < 7.);
  Alcotest.(check bool)
    (Printf.sprintf "256->1024 ratio %.1f in M log M band" (ratio m2 m3))
    true
    (ratio m2 m3 > 3.5 && ratio m2 m3 < 7.)

let () =
  Alcotest.run "snip"
    [
      ("babybear", S1.tests); ("f87", S2.tests); ("f265", S3.tests);
      ( "op-counts",
        [ Alcotest.test_case "prover is O(M log M) muls" `Quick test_table2_op_counts ] );
      ("properties", [ random_circuit_case ]);
    ]
