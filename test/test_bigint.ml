(* Unit and property tests for the bignum substrate. *)

module B = Prio_bigint.Bigint

let check_b msg expected actual =
  Alcotest.(check string) msg expected (B.to_string actual)

(* --------------------------- unit tests ---------------------------- *)

let test_of_to_int () =
  List.iter
    (fun x -> Alcotest.(check int) "roundtrip" x (B.to_int_exn (B.of_int x)))
    [ 0; 1; -1; 42; -42; 1 lsl 40; -(1 lsl 40); max_int; min_int ];
  Alcotest.(check bool) "sign of zero" true (B.sign B.zero = 0);
  Alcotest.(check bool) "is_zero" true (B.is_zero (B.of_int 0))

let test_string_roundtrip () =
  List.iter
    (fun s -> check_b s s (B.of_string s))
    [
      "0"; "1"; "-1"; "123456789";
      "123456789012345678901234567890123456789";
      "-999999999999999999999999999999";
      "1000000000000000000000000000000000000";
    ]

let test_hex () =
  Alcotest.(check string) "hex" "0xff" (B.to_string_hex (B.of_int 255));
  Alcotest.(check string) "hex big" "0x7c80000000000000000001"
    (B.to_string_hex (B.of_string "150511264542021332250918913"));
  check_b "parse hex" "255" (B.of_string "0xff");
  check_b "parse hex upper" "48879" (B.of_string "0xBEEF");
  check_b "parse negative hex" "-255" (B.of_string "-0xff")

let test_add_sub () =
  let a = B.of_string "99999999999999999999999999" in
  let b = B.of_string "1" in
  check_b "carry chain" "100000000000000000000000000" (B.add a b);
  check_b "sub to zero" "0" (B.sub a a);
  check_b "negative result" "-1" (B.sub b (B.of_int 2));
  check_b "mixed signs" "-99999999999999999999999998"
    (B.add (B.neg a) (B.of_int 1))

let test_mul () =
  let a = B.of_string "123456789012345678901234567890" in
  let b = B.of_string "98765432109876543210" in
  check_b "big product" "12193263113702179522496570642237463801111263526900"
    (B.mul a b);
  check_b "sign" "-6" (B.mul (B.of_int 2) (B.of_int (-3)));
  check_b "by zero" "0" (B.mul a B.zero);
  check_b "mul_int" "246913578024691357802469135780" (B.mul_int a 2)

let test_divmod () =
  let a = B.of_string "123456789012345678901234567890" in
  let b = B.of_string "98765432109876543210" in
  let q, r = B.divmod a b in
  Alcotest.(check bool) "reconstruct" true (B.equal a (B.add (B.mul q b) r));
  check_b "quotient" "1249999988" q;
  (* truncated semantics *)
  let q, r = B.divmod (B.of_int (-17)) (B.of_int 5) in
  Alcotest.(check int) "neg quot" (-3) (B.to_int_exn q);
  Alcotest.(check int) "neg rem" (-2) (B.to_int_exn r);
  Alcotest.(check int) "erem" 3 (B.to_int_exn (B.erem (B.of_int (-17)) (B.of_int 5)));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod a B.zero))

let test_divmod_small () =
  let a = B.of_string "1000000000000000000000" in
  let q, r = B.divmod_small a 7 in
  Alcotest.(check int) "rem" 6 r;
  Alcotest.(check bool) "reconstruct" true
    (B.equal a (B.add (B.mul_int q 7) (B.of_int r)))

let test_shifts () =
  check_b "shl" "1208925819614629174706176" (B.shift_left B.one 80);
  check_b "shr" "1" (B.shift_right (B.shift_left B.one 80) 80);
  check_b "shr to zero" "0" (B.shift_right (B.of_int 5) 3);
  Alcotest.(check int) "num_bits 2^80" 81 (B.num_bits (B.shift_left B.one 80));
  Alcotest.(check int) "num_bits 0" 0 (B.num_bits B.zero);
  Alcotest.(check bool) "testbit" true (B.testbit (B.shift_left B.one 80) 80);
  Alcotest.(check bool) "testbit off" false (B.testbit (B.shift_left B.one 80) 79)

let test_pow () =
  check_b "2^100" "1267650600228229401496703205376" (B.pow B.two 100);
  check_b "x^0" "1" (B.pow (B.of_int 12345) 0);
  let p = B.of_string "1000003" in
  check_b "fermat" "1"
    (B.pow_mod (B.of_int 2) (B.pred p) p)

let test_gcd_inv () =
  check_b "gcd" "6" (B.gcd (B.of_int 48) (B.of_int 18));
  check_b "gcd neg" "6" (B.gcd (B.of_int (-48)) (B.of_int 18));
  let p = B.of_string "150511264542021332250918913" in
  let a = B.of_string "987654321987654321" in
  (match B.invert_mod a p with
  | Some inv ->
    Alcotest.(check bool) "a * a^-1 = 1" true
      (B.equal (B.erem (B.mul a inv) p) B.one)
  | None -> Alcotest.fail "expected invertible");
  Alcotest.(check bool) "non-invertible" true
    (B.invert_mod (B.of_int 6) (B.of_int 9) = None)

let test_primality () =
  let primes =
    [ "2"; "3"; "5"; "97"; "2013265921"; "150511264542021332250918913";
      "33695497968059012868259156637528181185301565537701404135482156946302720725221377" ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("prime " ^ s) true
        (B.is_probable_prime (B.of_string s)))
    primes;
  let composites = [ "1"; "0"; "4"; "100"; "2013265923"; "150511264542021332250918915" ] in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("composite " ^ s) false
        (B.is_probable_prime (B.of_string s)))
    composites;
  (* strong pseudoprime to base 2 must still be caught *)
  Alcotest.(check bool) "2047 = 23*89" false
    (B.is_probable_prime (B.of_int 2047))

let test_bytes () =
  let x = B.of_string "150511264542021332250918913" in
  let b = B.to_bytes_be x 11 in
  Alcotest.(check int) "width" 11 (Bytes.length b);
  Alcotest.(check bool) "roundtrip" true (B.equal (B.of_bytes_be b) x);
  Alcotest.check_raises "too narrow" (Invalid_argument "Bigint.to_bytes_be: does not fit")
    (fun () -> ignore (B.to_bytes_be x 10));
  Alcotest.(check bool) "zero pads" true
    (B.equal (B.of_bytes_be (B.to_bytes_be (B.of_int 7) 20)) (B.of_int 7))

let test_random () =
  let rng = ref 12345 in
  let rand_limb () =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng
  in
  let bound = B.of_string "1000000000000000000000" in
  for _ = 1 to 100 do
    let x = B.random_below ~rand_limb bound in
    Alcotest.(check bool) "in range" true
      (B.sign x >= 0 && B.compare x bound < 0)
  done;
  let x = B.random_bits ~rand_limb 100 in
  Alcotest.(check bool) "bits bound" true (B.num_bits x <= 100)

let test_montgomery () =
  let p = B.of_string "150511264542021332250918913" in
  let ctx = B.Mont.create p in
  Alcotest.(check bool) "modulus" true (B.equal (B.Mont.modulus ctx) p);
  let x = B.of_string "99999999999999999999" in
  let y = B.of_string "123456789123456789123" in
  let xm = B.Mont.to_mont ctx x and ym = B.Mont.to_mont ctx y in
  Alcotest.(check bool) "mul" true
    (B.equal (B.Mont.of_mont ctx (B.Mont.mul ctx xm ym)) (B.erem (B.mul x y) p));
  Alcotest.(check bool) "add" true
    (B.equal (B.Mont.of_mont ctx (B.Mont.add ctx xm ym)) (B.erem (B.add x y) p));
  Alcotest.(check bool) "sub" true
    (B.equal (B.Mont.of_mont ctx (B.Mont.sub ctx xm ym)) (B.erem (B.sub x y) p));
  Alcotest.(check bool) "neg" true
    (B.equal (B.Mont.of_mont ctx (B.Mont.neg ctx xm)) (B.erem (B.neg x) p));
  Alcotest.(check bool) "pow matches pow_mod" true
    (B.equal
       (B.Mont.of_mont ctx (B.Mont.pow ctx xm (B.of_int 12345)))
       (B.pow_mod x (B.of_int 12345) p));
  Alcotest.(check bool) "one" true
    (B.equal (B.Mont.of_mont ctx (B.Mont.one ctx)) B.one);
  Alcotest.(check bool) "zero detect" true
    (B.Mont.is_zero ctx (B.Mont.to_mont ctx p));
  Alcotest.check_raises "even modulus"
    (Invalid_argument "Bigint.Mont.create: modulus must be odd and >= 3")
    (fun () -> ignore (B.Mont.create (B.of_int 10)))

(* The word-level Montgomery paths against the generic ones: the
   unrolled 3-limb multiply, add, sub and neg against [mul_generic],
   [add_generic], [sub_generic] and bignum [erem], and the limb sampler
   and codec against [random_below] and [to_bytes_be]/[of_bytes_be], over
   3-limb moduli with extreme limbs and random ones of other widths. *)
let test_montgomery_kernels () =
  let state = ref 0x2545F4914F6CDD1D in
  let rand_limb () =
    (* xorshift; the top 31 of 62 bits *)
    let x = !state in
    let x = x lxor ((x lsl 13) land 0x3FFFFFFFFFFFFFFF) in
    let x = x lxor (x lsr 7) in
    let x = x lxor ((x lsl 17) land 0x3FFFFFFFFFFFFFFF) in
    state := x;
    (x lsr 31) land 0x7FFFFFFF
  in
  let fixed =
    List.map B.of_string
      [
        "0x1fffffffffffffffffffffff" (* 2^93 - 1: every limb full *);
        "0x40000000000000001" (* 2^66 + 1 *);
        "0x4000000000000001" (* 2^62 + 1: smallest 3-limb modulus *);
        "0x7c80000000000000000001" (* F87 *);
        "0x1fffffffc00000007fffffff" (* full outer limbs, middle 0 *);
      ]
  in
  (* twelve 3-limb moduli (63..93 bits), twelve of other widths *)
  let random_moduli =
    List.init 24 (fun i ->
        let bits = if i < 12 then 63 + (i * 30 / 11) else 40 + ((i - 12) * 22) in
        let m = B.add (B.shift_left B.one (bits - 1)) (B.random_bits ~rand_limb (bits - 1)) in
        if B.is_even m then B.succ m else m)
  in
  List.iter
    (fun m ->
      let ctx = B.Mont.create m in
      let vals =
        [ B.zero; B.one; B.sub m B.two; B.pred m ]
        @ List.init 40 (fun _ -> B.random_below ~rand_limb m)
      in
      let elts = List.map (B.Mont.to_mont ctx) vals in
      List.iter2
        (fun x xm ->
          List.iter2
            (fun y ym ->
              let got = B.Mont.mul ctx xm ym in
              Alcotest.(check bool) "mul = mul_generic" true
                (B.Mont.equal got (B.Mont.mul_generic ctx xm ym));
              Alcotest.(check string) "mul = erem" (B.to_string (B.erem (B.mul x y) m))
                (B.to_string (B.Mont.of_mont ctx got));
              let sum = B.Mont.add ctx xm ym and diff = B.Mont.sub ctx xm ym in
              Alcotest.(check bool) "add = add_generic" true
                (B.Mont.equal sum (B.Mont.add_generic ctx xm ym));
              Alcotest.(check bool) "sub = sub_generic" true
                (B.Mont.equal diff (B.Mont.sub_generic ctx xm ym));
              Alcotest.(check string) "add = erem" (B.to_string (B.erem (B.add x y) m))
                (B.to_string (B.Mont.of_mont ctx sum));
              Alcotest.(check string) "sub = erem" (B.to_string (B.erem (B.sub x y) m))
                (B.to_string (B.Mont.of_mont ctx diff)))
            vals elts;
          let negated = B.Mont.neg ctx xm in
          Alcotest.(check bool) "neg = sub_generic 0" true
            (B.Mont.equal negated (B.Mont.sub_generic ctx (B.Mont.zero ctx) xm));
          Alcotest.(check string) "neg = erem" (B.to_string (B.erem (B.neg x) m))
            (B.to_string (B.Mont.of_mont ctx negated)))
        vals elts;
      let width = (B.num_bits m + 7) / 8 in
      List.iter2
        (fun x xm ->
          Alcotest.(check bytes) "to_bytes_be" (B.to_bytes_be x width)
            (B.Mont.to_bytes_be ctx xm width);
          List.iter
            (fun w ->
              match B.Mont.of_bytes_be ctx (B.to_bytes_be x w) with
              | Some e -> Alcotest.(check bool) "of_bytes_be" true (B.Mont.equal e xm)
              | None -> Alcotest.fail "of_bytes_be rejected a residue")
            [ width; width + 5 ])
        vals elts;
      List.iter
        (fun v ->
          Alcotest.(check bool) "of_bytes_be rejects >= m" true
            (Option.is_none (B.Mont.of_bytes_be ctx (B.to_bytes_be v (width + 5)))))
        [ m; B.succ m; B.shift_left B.one (width * 8); B.shift_left B.one ((width + 5) * 8 - 1) ];
      Alcotest.check_raises "to_bytes_be too narrow"
        (Invalid_argument "Bigint.Mont.to_bytes_be: width too small") (fun () ->
          ignore (B.Mont.to_bytes_be ctx (B.Mont.one ctx) (width - 1)));
      let saved = !state in
      let drawn = List.init 20 (fun _ -> B.Mont.random ctx ~rand_limb) in
      let after = !state in
      state := saved;
      List.iter
        (fun e ->
          Alcotest.(check bool) "random = random_below" true
            (B.Mont.equal e (B.Mont.to_mont ctx (B.random_below ~rand_limb m))))
        drawn;
      Alcotest.(check int) "same limbs consumed" after !state)
    (fixed @ random_moduli)

(* Knuth algorithm D's rare "add back" branch fires when the trial digit
   overestimates by one; max-limb patterns are the classic trigger. *)
let test_divmod_add_back_patterns () =
  let maxl = (1 lsl 31) - 1 in
  let of_limbs limbs =
    List.fold_left
      (fun acc l -> B.add (B.shift_left acc 31) (B.of_int l))
      B.zero (List.rev limbs)
  in
  let cases =
    [
      (* u with a zero middle limb over a divisor just above b/2 *)
      (of_limbs [ 0; 0; maxl; maxl ], of_limbs [ maxl; 1 lsl 30 ]);
      (of_limbs [ 0; 0; 0; maxl ], of_limbs [ 1; 1 lsl 30 ]);
      (of_limbs [ maxl; 0; maxl - 1; maxl ], of_limbs [ maxl; maxl ]);
      (of_limbs [ 0; maxl; 0; maxl ], of_limbs [ maxl; 0; 1 ]);
      (* divisor needing maximal normalization shift *)
      (of_limbs [ 123; 456; 789; 1 ], of_limbs [ maxl; 1 ]);
    ]
  in
  List.iter
    (fun (u, v) ->
      let q, r = B.divmod u v in
      Alcotest.(check bool) "reconstructs" true (B.equal u (B.add (B.mul q v) r));
      Alcotest.(check bool) "remainder in range" true
        (B.sign r >= 0 && B.compare r v < 0))
    cases

(* --------------------------- properties ---------------------------- *)

let gen_bigint =
  QCheck2.Gen.(
    let* nlimbs = int_range 0 6 in
    let* limbs = list_repeat nlimbs (int_bound 0x3FFFFFFF) in
    let* negate = bool in
    let v =
      List.fold_left
        (fun acc l -> B.add (B.shift_left acc 30) (B.of_int l))
        B.zero limbs
    in
    return (if negate then B.neg v else v))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:300 gen f)

let props =
  [
    prop "add commutes" (QCheck2.Gen.pair gen_bigint gen_bigint) (fun (a, b) ->
        B.equal (B.add a b) (B.add b a));
    prop "add associates" (QCheck2.Gen.triple gen_bigint gen_bigint gen_bigint)
      (fun (a, b, c) -> B.equal (B.add (B.add a b) c) (B.add a (B.add b c)));
    prop "sub inverse" (QCheck2.Gen.pair gen_bigint gen_bigint) (fun (a, b) ->
        B.equal (B.sub (B.add a b) b) a);
    prop "mul commutes" (QCheck2.Gen.pair gen_bigint gen_bigint) (fun (a, b) ->
        B.equal (B.mul a b) (B.mul b a));
    prop "mul distributes" (QCheck2.Gen.triple gen_bigint gen_bigint gen_bigint)
      (fun (a, b, c) ->
        B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)));
    prop "divmod reconstructs" (QCheck2.Gen.pair gen_bigint gen_bigint)
      (fun (a, b) ->
        if B.is_zero b then true
        else begin
          let q, r = B.divmod a b in
          B.equal a (B.add (B.mul q b) r)
          && B.compare (B.abs r) (B.abs b) < 0
          && (B.is_zero r || B.sign r = B.sign a)
        end);
    prop "string roundtrip" gen_bigint (fun a ->
        B.equal a (B.of_string (B.to_string a)));
    prop "hex roundtrip" gen_bigint (fun a ->
        B.equal a (B.of_string (B.to_string_hex a)));
    prop "shift inverse" (QCheck2.Gen.pair gen_bigint (QCheck2.Gen.int_bound 100))
      (fun (a, k) ->
        let a = B.abs a in
        B.equal a (B.shift_right (B.shift_left a k) k));
    prop "compare antisymmetric" (QCheck2.Gen.pair gen_bigint gen_bigint)
      (fun (a, b) -> B.compare a b = -B.compare b a);
    prop "erem in range" (QCheck2.Gen.pair gen_bigint gen_bigint) (fun (a, b) ->
        if B.is_zero b then true
        else begin
          let r = B.erem a b in
          B.sign r >= 0 && B.compare r (B.abs b) < 0
        end);
  ]

let () =
  Alcotest.run "bigint"
    [
      ( "unit",
        [
          Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "hex" `Quick test_hex;
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "divmod" `Quick test_divmod;
          Alcotest.test_case "divmod_small" `Quick test_divmod_small;
          Alcotest.test_case "divmod add-back patterns" `Quick
            test_divmod_add_back_patterns;
          Alcotest.test_case "shifts/bits" `Quick test_shifts;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "gcd/invert" `Quick test_gcd_inv;
          Alcotest.test_case "primality" `Quick test_primality;
          Alcotest.test_case "bytes" `Quick test_bytes;
          Alcotest.test_case "random" `Quick test_random;
          Alcotest.test_case "montgomery" `Quick test_montgomery;
          Alcotest.test_case "montgomery kernels" `Quick test_montgomery_kernels;
        ] );
      ("properties", props);
    ]
