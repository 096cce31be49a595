(* Field tests: axioms (property-based) for every field instance, the
   primality and FFT-friendliness of the field orders, serialization, and
   cross-checks of the fast BabyBear arithmetic against the generic bignum
   path. *)

module B = Prio_bigint.Bigint
module Rng = Prio_crypto.Rng
open Prio_field

module Axioms (F : Field_intf.S) = struct
  let rng = Rng.of_string_seed ("field-tests-" ^ F.name)

  let gen_elt =
    (* draw from the shared rng; deterministic per field *)
    QCheck2.Gen.map (fun () -> F.random rng) QCheck2.Gen.unit

  let prop name gen f =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:(F.name ^ ": " ^ name) ~count:200 gen f)

  let props =
    [
      prop "add commutative" (QCheck2.Gen.pair gen_elt gen_elt) (fun (a, b) ->
          F.equal (F.add a b) (F.add b a));
      prop "add associative" (QCheck2.Gen.triple gen_elt gen_elt gen_elt)
        (fun (a, b, c) -> F.equal (F.add (F.add a b) c) (F.add a (F.add b c)));
      prop "additive identity" gen_elt (fun a -> F.equal (F.add a F.zero) a);
      prop "additive inverse" gen_elt (fun a -> F.is_zero (F.add a (F.neg a)));
      prop "sub = add neg" (QCheck2.Gen.pair gen_elt gen_elt) (fun (a, b) ->
          F.equal (F.sub a b) (F.add a (F.neg b)));
      prop "mul commutative" (QCheck2.Gen.pair gen_elt gen_elt) (fun (a, b) ->
          F.equal (F.mul a b) (F.mul b a));
      prop "mul associative" (QCheck2.Gen.triple gen_elt gen_elt gen_elt)
        (fun (a, b, c) -> F.equal (F.mul (F.mul a b) c) (F.mul a (F.mul b c)));
      prop "mul identity" gen_elt (fun a -> F.equal (F.mul a F.one) a);
      prop "distributivity" (QCheck2.Gen.triple gen_elt gen_elt gen_elt)
        (fun (a, b, c) ->
          F.equal (F.mul a (F.add b c)) (F.add (F.mul a b) (F.mul a c)));
      prop "multiplicative inverse" gen_elt (fun a ->
          F.is_zero a || F.is_one (F.mul a (F.inv a)));
      prop "div then mul" (QCheck2.Gen.pair gen_elt gen_elt) (fun (a, b) ->
          F.is_zero b || F.equal (F.mul (F.div a b) b) a);
      prop "sqr = mul self" gen_elt (fun a -> F.equal (F.sqr a) (F.mul a a));
      prop "pow small" gen_elt (fun a ->
          F.equal (F.pow a 5) (F.mul a (F.mul a (F.mul a (F.mul a a)))));
      prop "bytes roundtrip" gen_elt (fun a -> F.equal (F.of_bytes (F.to_bytes a)) a);
      prop "bigint roundtrip" gen_elt (fun a ->
          F.equal (F.of_bigint (F.to_bigint a)) a);
      prop "fermat little" gen_elt (fun a ->
          F.is_zero a || F.is_one (F.pow_big a (B.pred F.order)));
    ]

  let unit_tests =
    [
      Alcotest.test_case (F.name ^ ": constants") `Quick (fun () ->
          Alcotest.(check bool) "0 <> 1" false (F.equal F.zero F.one);
          Alcotest.(check bool) "two" true (F.equal F.two (F.add F.one F.one));
          Alcotest.(check bool) "of_int neg" true
            (F.equal (F.of_int (-1)) (F.neg F.one));
          Alcotest.(check bool) "of_int wraps" true
            (F.is_zero (F.of_bigint F.order)));
      Alcotest.test_case (F.name ^ ": order is prime") `Slow (fun () ->
          Alcotest.(check bool) "prime" true (B.is_probable_prime F.order);
          Alcotest.(check int) "bit width" F.num_bits (B.num_bits F.order);
          (* FFT-friendliness: 2^two_adicity | p - 1 *)
          let pm1 = B.pred F.order in
          Alcotest.(check bool) "2-adicity divides" true
            (B.is_zero
               (B.erem pm1 (B.shift_left B.one F.two_adicity))));
      Alcotest.test_case (F.name ^ ": roots of unity") `Quick (fun () ->
          for k = 0 to Stdlib.min 10 F.two_adicity do
            let w = F.root_of_unity k in
            Alcotest.(check bool)
              (Printf.sprintf "order divides 2^%d" k)
              true
              (F.is_one (F.pow w (1 lsl k)));
            if k > 0 then
              Alcotest.(check bool)
                (Printf.sprintf "primitive at 2^%d" k)
                false
                (F.is_one (F.pow w (1 lsl (k - 1))))
          done;
          Alcotest.check_raises "out of range"
            (Invalid_argument (F.name ^ ".root_of_unity: out of range"))
            (fun () -> ignore (F.root_of_unity (F.two_adicity + 1))));
      Alcotest.test_case (F.name ^ ": full two-adicity root order") `Quick
        (fun () ->
          (* the derived 2^two_adicity root must have EXACT order: squaring
             it two_adicity - 1 times lands on -1 (not 1), one more square
             reaches 1. A root of smaller order would silently corrupt
             every boundary-sized NTT. *)
          let r = ref (F.root_of_unity F.two_adicity) in
          for _ = 1 to F.two_adicity - 1 do
            r := F.mul !r !r
          done;
          Alcotest.(check bool) "reaches -1" true (F.equal !r (F.neg F.one));
          Alcotest.(check bool) "then 1" true (F.is_one (F.mul !r !r)));
      Alcotest.test_case (F.name ^ ": division by zero") `Quick (fun () ->
          Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
              ignore (F.inv F.zero)));
      Alcotest.test_case (F.name ^ ": non-canonical bytes rejected") `Quick
        (fun () ->
          let raises b =
            match F.of_bytes b with
            | exception Invalid_argument _ -> true
            | _ -> false
          in
          let enc v = B.to_bytes_be v F.bytes_len in
          let accepted label v =
            let x = F.of_bytes (enc v) in
            Alcotest.(check string) (label ^ " value") (B.to_string v)
              (B.to_string (F.to_bigint x));
            Alcotest.(check bytes) (label ^ " roundtrip") (enc v) (F.to_bytes x)
          in
          Alcotest.(check bool) "raises" true (raises (enc F.order));
          Alcotest.(check bool) "p+1 raises" true (raises (enc (B.succ F.order)));
          Alcotest.(check bool) "all-0xff raises" true
            (raises (Bytes.make F.bytes_len '\xff'));
          List.iter
            (fun w ->
              Alcotest.(check bool)
                (Printf.sprintf "width %d raises" w)
                true
                (raises (Bytes.make w '\000')))
            [ 0; F.bytes_len - 1; F.bytes_len + 1 ];
          accepted "p-1" (B.pred F.order);
          (* one bit set on each side of every 31-bit limb boundary below
             p: catches shift and spill mistakes in a limb packer *)
          let rec boundaries k =
            let bits = List.filter (fun b -> b < F.num_bits) [ k - 1; k ] in
            if bits = [] then [] else bits @ boundaries (k + 31)
          in
          List.iter
            (fun bit -> accepted (Printf.sprintf "bit %d" bit) (B.shift_left B.one bit))
            (boundaries 31));
      Alcotest.test_case (F.name ^ ": random nonzero") `Quick (fun () ->
          for _ = 1 to 50 do
            Alcotest.(check bool) "nonzero" false
              (F.is_zero (F.random_nonzero rng))
          done);
    ]
end

module A1 = Axioms (Babybear)
module A2 = Axioms (F87)
module A3 = Axioms (F265)

(* The generic Montgomery functor instantiated with the BabyBear prime must
   agree operation-for-operation with the specialized native-int field. *)
module Babybear_generic = Proth.Make (struct
  let name = "BabyBearGeneric"
  let prime = "2013265921"
  let generator = 31
  let two_adicity = 27
  let odd_cofactor = "15"
end)

let test_proth_vs_native () =
  let rng = Rng.of_string_seed "proth-cross" in
  let module G = Babybear_generic in
  for _ = 1 to 200 do
    let a = Rng.int_below rng 2013265921 and b = Rng.int_below rng 2013265921 in
    let ga = G.of_int a and gb = G.of_int b in
    let check name native generic =
      Alcotest.(check string) name (Babybear.to_string native) (G.to_string generic)
    in
    check "mul" (Babybear.mul a b) (G.mul ga gb);
    check "add" (Babybear.add a b) (G.add ga gb);
    check "sub" (Babybear.sub a b) (G.sub ga gb);
    check "pow" (Babybear.pow a 12345) (G.pow ga 12345);
    if a <> 0 then check "inv" (Babybear.inv a) (G.inv ga)
  done;
  (* identical root-of-unity towers *)
  for k = 0 to 27 do
    Alcotest.(check string)
      (Printf.sprintf "root 2^%d" k)
      (Babybear.to_string (Babybear.root_of_unity k))
      (G.to_string (G.root_of_unity k))
  done

(* BabyBear fast path vs the generic bignum arithmetic *)
let test_babybear_crosscheck () =
  let rng = Rng.of_string_seed "bb-cross" in
  let p = Babybear.order in
  for _ = 1 to 200 do
    let a = Babybear.random rng and b = Babybear.random rng in
    let ab = B.of_int a and bb = B.of_int b in
    Alcotest.(check int) "mul" (B.to_int_exn (B.erem (B.mul ab bb) p)) (Babybear.mul a b);
    Alcotest.(check int) "add" (B.to_int_exn (B.erem (B.add ab bb) p)) (Babybear.add a b);
    Alcotest.(check int) "sub" (B.to_int_exn (B.erem (B.sub ab bb) p)) (Babybear.sub a b)
  done

(* The word-level Montgomery kernels (unrolled 3-limb multiply, limb
   sampler and codec) vs the bignum reference, on random values and on
   the edge residues 0, 1, p-2 and p-1. *)
let test_proth_crosscheck (module F : Field_intf.S) () =
  let rng = Rng.of_string_seed ("proth-bignum-" ^ F.name) in
  let p = F.order in
  let edges = List.map F.of_bigint [ B.zero; B.one; B.sub p B.two; B.pred p ] in
  let randoms = List.init 200 (fun _ -> F.random rng) in
  let check name expect got =
    Alcotest.(check string) name (B.to_string expect) (B.to_string (F.to_bigint got))
  in
  let pair a b =
    let ab = F.to_bigint a and bb = F.to_bigint b in
    check "mul" (B.erem (B.mul ab bb) p) (F.mul a b);
    check "add" (B.erem (B.add ab bb) p) (F.add a b);
    check "sub" (B.erem (B.sub ab bb) p) (F.sub a b)
  in
  List.iter (fun a -> List.iter (pair a) (edges @ List.filteri (fun i _ -> i < 10) randoms)) edges;
  List.iteri (fun i a -> pair a (List.nth randoms ((i + 1) mod 200))) randoms;
  List.iter
    (fun x ->
      Alcotest.(check bytes) "to_bytes" (B.to_bytes_be (F.to_bigint x) F.bytes_len)
        (F.to_bytes x))
    (edges @ randoms);
  (* the sampler draws exactly what the bignum rejection sampler draws,
     so client and server seed expansion cannot drift apart *)
  let seed = Rng.fresh_seed rng in
  let r = Rng.of_seed seed and r' = Rng.of_seed seed in
  for _ = 1 to 200 do
    let x = F.random r in
    let y = F.of_bigint (B.random_below ~rand_limb:(fun () -> Rng.limb31 r') p) in
    Alcotest.(check bool) "random" true (F.equal x y)
  done;
  Alcotest.(check int) "same stream position" (Rng.byte r') (Rng.byte r)

(* The two-adicity root of the 87-bit field must be exactly the paper-scale
   capacity we rely on: SNIPs for circuits up to 2^78 mul gates. *)
let test_field_parameters () =
  Alcotest.(check int) "babybear two-adicity" 27 Babybear.two_adicity;
  Alcotest.(check int) "f87 two-adicity" 79 F87.two_adicity;
  Alcotest.(check int) "f265 two-adicity" 256 F265.two_adicity;
  Alcotest.(check int) "f87 width" 87 F87.num_bits;
  Alcotest.(check int) "f265 width" 265 F265.num_bits;
  Alcotest.(check string) "f87 prime"
    "150511264542021332250918913" (B.to_string F87.order)

let () =
  Alcotest.run "field"
    [
      ("babybear-axioms", A1.props);
      ("f87-axioms", A2.props);
      ("f265-axioms", A3.props);
      ("babybear-unit", A1.unit_tests);
      ("f87-unit", A2.unit_tests);
      ("f265-unit", A3.unit_tests);
      ( "cross-checks",
        [
          Alcotest.test_case "babybear vs bignum" `Quick test_babybear_crosscheck;
          Alcotest.test_case "proth functor vs native" `Quick test_proth_vs_native;
          Alcotest.test_case "f87 vs bignum" `Quick
            (test_proth_crosscheck (module F87));
          Alcotest.test_case "f265 vs bignum" `Quick
            (test_proth_crosscheck (module F265));
          Alcotest.test_case "field parameters" `Quick test_field_parameters;
        ] );
    ]
