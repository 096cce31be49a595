(* Circuit-optimizer tests: pass-level rewrites on targeted circuits,
   idempotence and caching of the pipeline, the random-input equivalence
   harness (raw vs. optimized Valid over every AFE-zoo specimen and every
   NTT field), the pinned gate-count regression table, and agreement
   between the checked-in budget ledger and the measured counts. *)

module Rng = Prio_crypto.Rng
module F = Prio_field.F87
module C = Prio_circuit.Circuit.Make (F)
module O = Prio_circuit.Opt.Make (F)
module Zoo = Prio_afe.Zoo.Make (F)
module Budget = Prio_analysis.Budget
module Diagnostic = Prio_analysis.Diagnostic

let muls = C.num_mul_gates
let asserts c = Array.length c.C.assert_zero

(* ----------------------------- passes -------------------------------- *)

let test_constant_fold () =
  (* (3 + 5) − 8, asserted zero: provably vacuous, so the constraint and
     everything feeding it folds away and any input is valid *)
  let b = C.Builder.create ~num_inputs:1 in
  let s = C.Builder.add b (C.Builder.const b (F.of_int 3)) (C.Builder.const b (F.of_int 5)) in
  C.Builder.assert_zero b (C.Builder.sub b s (C.Builder.const b (F.of_int 8)));
  let c = O.optimize (C.Builder.build b) in
  Alcotest.(check int) "no asserts left" 0 (asserts c);
  Alcotest.(check bool) "accepts anything" true (C.valid c ~inputs:[| F.of_int 7 |]);
  (* a provably NONZERO assert must survive: the circuit rejects everything *)
  let b = C.Builder.create ~num_inputs:1 in
  C.Builder.assert_zero b (C.Builder.const b F.one);
  let c = O.optimize (C.Builder.build b) in
  Alcotest.(check int) "unsatisfiable assert kept" 1 (asserts c);
  Alcotest.(check bool) "rejects everything" false (C.valid c ~inputs:[| F.zero |])

let test_cse () =
  (* x·x computed twice; the difference collapses to zero, the assert is
     dropped, and dead-gate elimination sweeps out both muls *)
  let b = C.Builder.create ~num_inputs:1 in
  let x = C.Builder.input b 0 in
  let m1 = C.Builder.mul b x x in
  let m2 = C.Builder.mul b x x in
  C.Builder.assert_zero b (C.Builder.sub b m1 m2);
  let raw = C.Builder.build b in
  Alcotest.(check int) "raw has two muls" 2 (muls raw);
  let c = O.optimize raw in
  Alcotest.(check int) "optimized has none" 0 (muls c);
  Alcotest.(check bool) "accepts anything" true (C.valid c ~inputs:[| F.of_int 9 |])

let test_commutative_cse () =
  (* x·y and y·x are the same gate after commutative normalization *)
  let b = C.Builder.create ~num_inputs:3 in
  let x = C.Builder.input b 0 and y = C.Builder.input b 1 in
  let m1 = C.Builder.mul b x y in
  let m2 = C.Builder.mul b y x in
  C.Builder.assert_zero b (C.Builder.sub b m1 (C.Builder.input b 2));
  C.Builder.assert_zero b (C.Builder.sub b m2 (C.Builder.input b 2));
  let raw = C.Builder.build b in
  Alcotest.(check int) "raw has two muls" 2 (muls raw);
  Alcotest.(check int) "one mul survives" 1 (muls (O.optimize raw))

let test_mul_canonicalize () =
  (* x·4 is a Scale, not a Mul, so it costs nothing in the SNIP *)
  let b = C.Builder.create ~num_inputs:2 in
  let x = C.Builder.input b 0 in
  let y = C.Builder.mul b x (C.Builder.const b (F.of_int 4)) in
  C.Builder.assert_zero b (C.Builder.sub b y (C.Builder.input b 1));
  let raw = C.Builder.build b in
  Alcotest.(check int) "raw has one mul" 1 (muls raw);
  let c = O.optimize raw in
  Alcotest.(check int) "optimized has none" 0 (muls c);
  Alcotest.(check bool) "4x = y accepted" true
    (C.valid c ~inputs:[| F.of_int 3; F.of_int 12 |]);
  Alcotest.(check bool) "4x <> y rejected" false
    (C.valid c ~inputs:[| F.of_int 3; F.of_int 13 |])

let test_affine_dedup () =
  (* the same affine constraint stated twice through different chains
     collapses to one assert-zero *)
  let b = C.Builder.create ~num_inputs:2 in
  let x = C.Builder.input b 0 and y = C.Builder.input b 1 in
  C.Builder.assert_zero b (C.Builder.add_const b (F.of_int 3) (C.Builder.add b x y));
  C.Builder.assert_zero b (C.Builder.add_const b (F.of_int 3) (C.Builder.add b y x));
  C.Builder.assert_zero b
    (C.Builder.add b x (C.Builder.add_const b (F.of_int 3) y));
  let raw = C.Builder.build b in
  Alcotest.(check int) "three asserts stated" 3 (asserts raw);
  let c = O.optimize raw in
  Alcotest.(check int) "one assert survives" 1 (asserts c);
  Alcotest.(check bool) "x + y + 3 = 0 accepted" true
    (C.valid c ~inputs:[| F.of_int 4; F.neg (F.of_int 7) |]);
  Alcotest.(check bool) "x + y + 3 <> 0 rejected" false
    (C.valid c ~inputs:[| F.of_int 4; F.of_int 7 |])

let test_dead_gate_elim () =
  (* a mul feeding no assert-zero root is swept out *)
  let b = C.Builder.create ~num_inputs:2 in
  let x = C.Builder.input b 0 and y = C.Builder.input b 1 in
  ignore (C.Builder.mul b x y);
  C.Builder.assert_bit b x;
  let raw = C.Builder.build b in
  Alcotest.(check int) "raw has two muls" 2 (muls raw);
  let c = O.optimize raw in
  Alcotest.(check int) "only the bit check survives" 1 (muls c);
  Alcotest.(check bool) "bit still enforced" false (C.valid c ~inputs:[| F.two; F.zero |])

(* ----------------------------- pipeline ------------------------------ *)

let test_idempotent () =
  List.iter
    (fun e ->
      let once = e.Zoo.optimized in
      let twice = O.optimize once in
      if not (O.equal_structure once twice) then
        Alcotest.failf "%s: optimize is not a fixpoint" e.Zoo.name)
    (Zoo.all ())

(* L one-bit coordinates, one assert_bit each: the wide-bits circuit. *)
let bits_circuit l =
  let b = C.Builder.create ~num_inputs:l in
  for i = 0 to l - 1 do
    C.Builder.assert_bit b (C.Builder.input b i)
  done;
  C.Builder.build b

(* A digest of a circuit's exact structure — gate order, operands,
   constants and assert-zero roots — independent of physical sharing. *)
let digest (c : C.t) =
  let b = Buffer.create 4096 in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ','
  in
  let fe v = Buffer.add_bytes b (F.to_bytes v) in
  let op tag x y =
    Buffer.add_char b tag;
    int x;
    int y
  in
  int c.C.num_inputs;
  Array.iter
    (function
      | C.Input k ->
        Buffer.add_char b 'i';
        int k
      | C.Const v ->
        Buffer.add_char b 'k';
        fe v
      | C.Add (x, y) -> op '+' x y
      | C.Sub (x, y) -> op '-' x y
      | C.Mul (x, y) -> op '*' x y
      | C.Scale (v, x) ->
        Buffer.add_char b 's';
        fe v;
        int x
      | C.Add_const (v, x) ->
        Buffer.add_char b 'c';
        fe v;
        int x)
    c.C.gates;
  Buffer.add_char b '|';
  Array.iter int c.C.assert_zero;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Known answers: the digest of [optimize raw] per specimen, and of the
   256-input wide-bits circuit, taken from the optimizer before its affine
   memo was hashed. A change to emission order fails here. *)
let expected_digests =
  [
    ("or", "94254c511713554eb3cbc81e93a885a1");
    ("sum8", "18616edbfbad5a04ef48e5c0a5b89407");
    ("histogram12", "e41ae9f23c840a33b4bd20a50afc5b48");
    ("max16", "e271af8d4d9d2b0614307361b44e4c16");
    ("product-b10-f4", "d644a1a9827bf63b0cc4d32ea3e004a6");
    ("fxsum-6.4", "d644a1a9827bf63b0cc4d32ea3e004a6");
    ("linreg-d2-b6", "7df1c54001682f979c718a162c64dfc7");
    ("r2-d2-b6", "227de2b41eae6a79f6d29808d55b4d44");
    ("variance8", "4f1c98074e244fc98785e26f4ff2c54b");
    ("most-popular8", "64b0d8cd8fa2b5c8e1bbb51e057fe767");
    ("popular-8b-6buckets", "343c1fc17f3ccaf00ca86ed270f8c53a");
    ("count-min3x10", "ec67b9ab916c19cffd586aed3b9db17a");
    ("bits256", "3fe0fdd5442513d841c27808397b72d0");
  ]

let test_output_pinned () =
  let specimens =
    List.map (fun e -> (e.Zoo.name, e.Zoo.raw)) (Zoo.all ())
    @ [ ("bits256", bits_circuit 256) ]
  in
  Alcotest.(check int) "specimen count" (List.length expected_digests)
    (List.length specimens);
  List.iter
    (fun (name, raw) ->
      let o = O.optimize raw in
      (match List.assoc_opt name expected_digests with
      | None -> Alcotest.failf "no pinned digest for %s" name
      | Some want -> Alcotest.(check string) (name ^ " digest") want (digest o));
      if not (O.equal_structure (O.optimize o) o) then
        Alcotest.failf "%s: optimize is not a fixpoint" name)
    specimens

(* The affine memo must stay linear. Re-optimizing the already-optimized
   circuit took 152 ms at 1024 inputs and 3.4 s at 4096 with a quadratic
   memo scan, and takes 13 ms and 61 ms with the hashed memo (2 vCPU).
   The raw 4096-input pipeline below takes about 40 ms against 2.7 s
   for the quadratic memo, so the 1 s budget leaves 25× headroom for a
   loaded machine and still fails a quadratic memo by 2.7×. *)
let test_linear_time () =
  let raw = bits_circuit 4096 in
  let t0 = Unix.gettimeofday () in
  let o = O.optimize raw in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "one mul per bit" 4096 (muls o);
  if dt > 1.0 then
    Alcotest.failf "optimize of 4096 bits took %.2f s (budget 1 s)" dt

let test_num_inputs_preserved () =
  List.iter
    (fun e ->
      Alcotest.(check int)
        (e.Zoo.name ^ " arity")
        (C.num_inputs e.Zoo.raw)
        (C.num_inputs e.Zoo.optimized))
    (Zoo.all ())

(* --------------------------- equivalence ----------------------------- *)

(* Optimized and raw circuits must agree — accept or reject together — on
   1000 inputs per specimen per field, mixed three ways: valid encodings,
   valid encodings with one coordinate replaced by a random field element
   (near-misses), and fully random vectors. The Counting wrapper is a
   cost-model instrument, not a deployment field, so it is not here. *)
module type FIELD = Prio_field.Field_intf.S

(* A generic-Montgomery Proth instance (the BabyBear prime through the
   portable functor) alongside the three specialized fields. *)
module Proth_babybear = Prio_field.Proth.Make (struct
  let name = "ProthBabyBear"
  let prime = "2013265921"
  let generator = 31
  let two_adicity = 27
  let odd_cofactor = "15"
end)

let fields : (string * (module FIELD)) list =
  [
    ("Babybear", (module Prio_field.Babybear));
    ("F87", (module Prio_field.F87));
    ("F265", (module Prio_field.F265));
    ("Proth", (module Proth_babybear));
  ]

let test_equivalence (fname, (m : (module FIELD))) () =
  let module Fld = (val m) in
  let module Z = Prio_afe.Zoo.Make (Fld) in
  let module CF = Prio_circuit.Circuit.Make (Fld) in
  let rng = Rng.of_string_seed ("opt-equivalence-" ^ fname) in
  List.iter
    (fun e ->
      let len = CF.num_inputs e.Z.raw in
      for i = 1 to 1000 do
        let inputs =
          match i mod 3 with
          | 0 -> e.Z.sample rng
          | 1 ->
            let v = e.Z.sample rng in
            if len > 0 then v.(Rng.int_below rng len) <- Fld.random rng;
            v
          | _ -> Array.init len (fun _ -> Fld.random rng)
        in
        let r = CF.valid e.Z.raw ~inputs in
        let o = CF.valid e.Z.optimized ~inputs in
        if r <> o then
          Alcotest.failf "%s over %s, trial %d: raw says %b, optimized says %b"
            e.Z.name fname i r o
      done)
    (Z.all ())

(* -------------------------- gate-count pins -------------------------- *)

(* Exact (raw, optimized) mul counts per specimen. The raw column states
   each builder's defensive/self-contained constraint style; the
   optimized column is the paper's tight count, which is also what the
   budget ledger pins and what SNIP proofs pay for. *)
let expected_muls =
  [
    ("or", 0, 0);
    ("sum8", 8, 8);
    ("histogram12", 12, 12);
    ("max16", 0, 0);
    ("product-b10-f4", 10, 10);
    ("fxsum-6.4", 10, 10);
    ("linreg-d2-b6", 83, 23);
    ("r2-d2-b6", 20, 20);
    ("variance8", 17, 9);
    ("most-popular8", 8, 8);
    ("popular-8b-6buckets", 60, 54);
    ("count-min3x10", 60, 30);
  ]

let test_gate_count_table () =
  let entries = Zoo.all () in
  Alcotest.(check int) "specimen count" (List.length expected_muls)
    (List.length entries);
  List.iter
    (fun e ->
      match List.find_opt (fun (n, _, _) -> n = e.Zoo.name) expected_muls with
      | None -> Alcotest.failf "no pinned counts for %s" e.Zoo.name
      | Some (_, raw, opt) ->
        Alcotest.(check int) (e.Zoo.name ^ " raw muls") raw (muls e.Zoo.raw);
        Alcotest.(check int) (e.Zoo.name ^ " opt muls") opt (muls e.Zoo.optimized))
    entries;
  (* the optimizer must be earning its keep on several families *)
  let strict =
    List.length (List.filter (fun (_, r, o) -> o < r) expected_muls)
  in
  Alcotest.(check bool) "strict reduction on >= 3 specimens" true (strict >= 3)

(* ------------------------- budget ledger ----------------------------- *)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let measured_budget () =
  List.map
    (fun e ->
      {
        Budget.name = e.Zoo.name;
        mul = muls e.Zoo.optimized;
        wires = C.num_wires e.Zoo.optimized;
        line = 0;
      })
    (Zoo.all ())

let test_ledger_matches () =
  (* next to this executable, whatever the working directory *)
  let file = ".prio-circuit-budgets" in
  let path = Filename.(concat (dirname Sys.executable_name) (concat ".." file)) in
  match Budget.parse ~file (read_file path) with
  | Error d -> Alcotest.fail (Diagnostic.to_string d)
  | Ok budget ->
    let diags = Budget.check ~file ~budget ~measured:(measured_budget ()) in
    Alcotest.(check (list string)) "checked-in ledger matches measurement" []
      (List.map Diagnostic.to_string diags)

let () =
  Alcotest.run "opt"
    [
      ( "passes",
        [
          Alcotest.test_case "constant folding" `Quick test_constant_fold;
          Alcotest.test_case "cse" `Quick test_cse;
          Alcotest.test_case "commutative cse" `Quick test_commutative_cse;
          Alcotest.test_case "mul canonicalization" `Quick test_mul_canonicalize;
          Alcotest.test_case "affine dedup" `Quick test_affine_dedup;
          Alcotest.test_case "dead gates" `Quick test_dead_gate_elim;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "idempotent" `Quick test_idempotent;
          Alcotest.test_case "arity preserved" `Quick test_num_inputs_preserved;
          Alcotest.test_case "output pinned" `Quick test_output_pinned;
          Alcotest.test_case "linear time" `Quick test_linear_time;
        ] );
      ( "equivalence",
        List.map
          (fun ((name, _) as f) ->
            Alcotest.test_case name `Quick (test_equivalence f))
          fields );
      ( "budgets",
        [
          Alcotest.test_case "gate-count table" `Quick test_gate_count_table;
          Alcotest.test_case "ledger matches" `Quick test_ledger_matches;
        ] );
    ]
