(* Tests for the crypto substrate: RFC/FIPS test vectors plus behavioural
   checks for the RNG and the authenticated box. *)

module Chacha20 = Prio_crypto.Chacha20
module Sha256 = Prio_crypto.Sha256
module Hmac = Prio_crypto.Hmac
module Rng = Prio_crypto.Rng
module Authbox = Prio_crypto.Authbox

let bytes_of_hex s =
  let n = String.length s / 2 in
  Bytes.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let hex = Sha256.hex

(* ------------------------------ ChaCha20 --------------------------- *)

(* RFC 8439 §2.3.2: key = 00..1f, nonce = 000000090000004a00000000,
   counter = 1. *)
let test_chacha_block () =
  let key = bytes_of_hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = bytes_of_hex "000000090000004a00000000" in
  let block = Chacha20.block ~key ~counter:1 ~nonce in
  Alcotest.(check string) "keystream block"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (hex block)

(* RFC 8439 §2.4.2: plaintext "Ladies and Gentlemen..." *)
let test_chacha_encrypt () =
  let key = bytes_of_hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = bytes_of_hex "000000000000004a00000000" in
  let plaintext =
    Bytes.of_string
      "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
  in
  let ct = Chacha20.encrypt ~key ~counter:1 ~nonce plaintext in
  Alcotest.(check string) "ciphertext"
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0bf91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d807ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab77937365af90bbf74a35be6b40b8eedf2785e42874d"
    (hex ct);
  Alcotest.(check string) "decrypt = encrypt" (Bytes.to_string plaintext)
    (Bytes.to_string (Chacha20.encrypt ~key ~counter:1 ~nonce ct))

(* Every message length 0..200, at two counters: the full-block word XOR
   and the bytewise tail against a plain XOR with the concatenated
   [block] keystream. *)
let test_chacha_length_sweep () =
  let key = Bytes.init 32 (fun i -> Char.chr (((i * 37) + 5) land 0xff)) in
  let nonce = Bytes.init 12 (fun i -> Char.chr (i + 1)) in
  let msg = Bytes.init 200 (fun i -> Char.chr (((i * 131) + 7) land 0xff)) in
  List.iter
    (fun counter ->
      let stream =
        Bytes.concat Bytes.empty
          (List.init 4 (fun b -> Chacha20.block ~key ~counter:(counter + b) ~nonce))
      in
      for len = 0 to 200 do
        let m = Bytes.sub msg 0 len in
        let want =
          Bytes.init len (fun i ->
              Char.chr (Char.code (Bytes.get m i) lxor Char.code (Bytes.get stream i)))
        in
        Alcotest.(check string)
          (Printf.sprintf "counter %d, %d bytes" counter len)
          (hex want)
          (hex (Chacha20.encrypt ~key ~counter ~nonce m))
      done)
    [ 0; 7 ]

let test_chacha_args () =
  Alcotest.check_raises "bad key" (Invalid_argument "Chacha20.block: key must be 32 bytes")
    (fun () -> ignore (Chacha20.block ~key:(Bytes.create 16) ~counter:0 ~nonce:(Bytes.create 12)));
  Alcotest.check_raises "bad nonce" (Invalid_argument "Chacha20.block: nonce must be 12 bytes")
    (fun () -> ignore (Chacha20.block ~key:(Bytes.create 32) ~counter:0 ~nonce:(Bytes.create 8)))

(* ------------------------------ SHA-256 ---------------------------- *)

let test_sha256_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( String.make 1000000 'a',
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
    ]
  in
  List.iter
    (fun (msg, want) ->
      Alcotest.(check string)
        (Printf.sprintf "sha256 of %d bytes" (String.length msg))
        want
        (hex (Sha256.digest_string msg)))
    cases

let test_sha256_incremental () =
  (* feeding in odd-sized chunks must equal one-shot *)
  let data = String.init 1237 (fun i -> Char.chr (i land 0xff)) in
  let ctx = Sha256.init () in
  let pos = ref 0 in
  let sizes = [ 1; 3; 64; 65; 129; 500; 475 ] in
  List.iter
    (fun sz ->
      Sha256.update ctx (Bytes.of_string (String.sub data !pos sz));
      pos := !pos + sz)
    sizes;
  Alcotest.(check string) "incremental = one-shot"
    (hex (Sha256.digest_string data))
    (hex (Sha256.finalize ctx))

(* Every length 0..300, so each padding case and block boundary is met:
   one-shot against two [update]s split at every 7th offset, and the
   digests together pinned to an independent SHA-256 (the digest of the
   301 digests concatenated). *)
let test_sha256_length_sweep () =
  let data = Bytes.init 300 (fun i -> Char.chr (((i * 131) + 7) land 0xff)) in
  let all = Buffer.create (301 * 32) in
  for len = 0 to 300 do
    let msg = Bytes.sub data 0 len in
    let one_shot = Sha256.digest msg in
    Buffer.add_bytes all one_shot;
    let split = ref 0 in
    while !split <= len do
      let ctx = Sha256.init () in
      Sha256.update ctx (Bytes.sub msg 0 !split);
      Sha256.update ctx (Bytes.sub msg !split (len - !split));
      Alcotest.(check string)
        (Printf.sprintf "%d bytes split at %d" len !split)
        (hex one_shot)
        (hex (Sha256.finalize ctx));
      split := !split + 7
    done
  done;
  Alcotest.(check string) "digests of lengths 0..300"
    "7722024365d27836079cbf29de35d060b9383d7c713083199661392f983216d4"
    (hex (Sha256.digest (Buffer.to_bytes all)))

(* ------------------------------ HMAC ------------------------------- *)

(* RFC 4231 test cases 1 and 2. *)
let test_hmac_vectors () =
  let tag1 =
    Hmac.sha256 ~key:(Bytes.make 20 '\x0b') (Bytes.of_string "Hi There")
  in
  Alcotest.(check string) "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" (hex tag1);
  let tag2 =
    Hmac.sha256 ~key:(Bytes.of_string "Jefe")
      (Bytes.of_string "what do ya want for nothing?")
  in
  Alcotest.(check string) "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" (hex tag2)

(* RFC 4231 test cases 6 and 7: a 131-byte key, longer than the block,
   so HMAC hashes it first. *)
let test_hmac_long_key_vectors () =
  let key = Bytes.make 131 '\xaa' in
  let tag6 =
    Hmac.sha256 ~key
      (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First")
  in
  Alcotest.(check string) "rfc4231 case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" (hex tag6);
  let tag7 =
    Hmac.sha256 ~key
      (Bytes.of_string
         "This is a test using a larger than block-size key and a larger than \
          block-size data. The key needs to be hashed before being used by the \
          HMAC algorithm.")
  in
  Alcotest.(check string) "rfc4231 case 7"
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" (hex tag7)

let test_hmac_verify () =
  let key = Bytes.of_string "secret" in
  let msg = Bytes.of_string "the message" in
  let tag = Hmac.sha256_trunc ~key 16 msg in
  Alcotest.(check bool) "accepts" true (Hmac.verify ~key ~tag msg);
  let bad = Bytes.copy tag in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 1));
  Alcotest.(check bool) "rejects flipped tag" false (Hmac.verify ~key ~tag:bad msg);
  Alcotest.(check bool) "rejects wrong msg" false
    (Hmac.verify ~key ~tag (Bytes.of_string "other message"))

(* Pin the verification contract the ct-compare lint rule exists to
   protect: degenerate tag lengths are rejected (not raised on), every
   truncation length round-trips, and a flip of any single bit anywhere
   in the tag fails verification. *)
let test_hmac_verify_contract () =
  let key = Bytes.of_string "contract key" in
  let msg = Bytes.of_string "the message under test" in
  Alcotest.(check bool) "empty tag rejected" false
    (Hmac.verify ~key ~tag:Bytes.empty msg);
  Alcotest.(check bool) "oversize tag rejected" false
    (Hmac.verify ~key ~tag:(Bytes.make 33 '\x00') msg);
  for len = 1 to 32 do
    let tag = Hmac.sha256_trunc ~key len msg in
    Alcotest.(check bool)
      (Printf.sprintf "trunc %d accepts" len)
      true
      (Hmac.verify ~key ~tag msg);
    (* the final byte of a truncated tag must actually be checked *)
    let bad = Bytes.copy tag in
    Bytes.set bad (len - 1)
      (Char.chr (Char.code (Bytes.get bad (len - 1)) lxor 1));
    Alcotest.(check bool)
      (Printf.sprintf "trunc %d corrupted tail rejected" len)
      false
      (Hmac.verify ~key ~tag:bad msg)
  done;
  let tag = Hmac.sha256 ~key msg in
  for byte = 0 to 31 do
    for bit = 0 to 7 do
      let bad = Bytes.copy tag in
      Bytes.set bad byte
        (Char.chr (Char.code (Bytes.get bad byte) lxor (1 lsl bit)));
      Alcotest.(check bool)
        (Printf.sprintf "bit flip %d/%d rejected" byte bit)
        false
        (Hmac.verify ~key ~tag:bad msg)
    done
  done

(* ------------------------------ Rng -------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.of_string_seed "seed" and b = Rng.of_string_seed "seed" in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.byte a) (Rng.byte b)
  done;
  let c = Rng.of_string_seed "other" in
  let same = ref true in
  for _ = 1 to 16 do
    if Rng.byte a <> Rng.byte c then same := false
  done;
  Alcotest.(check bool) "different seed differs" false !same

let test_rng_ranges () =
  let rng = Rng.of_string_seed "ranges" in
  for _ = 1 to 500 do
    let v = Rng.int_below rng 7 in
    Alcotest.(check bool) "int_below" true (v >= 0 && v < 7);
    let v = Rng.int_range rng (-3) 4 in
    Alcotest.(check bool) "int_range" true (v >= -3 && v <= 4);
    let f = Rng.float01 rng in
    Alcotest.(check bool) "float01" true (f >= 0. && f < 1.);
    let l = Rng.limb31 rng in
    Alcotest.(check bool) "limb31" true (l >= 0 && l < 1 lsl 31)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int_below: n <= 0")
    (fun () -> ignore (Rng.int_below rng 0))

let test_rng_uniformity () =
  (* crude frequency check: 6000 draws over 6 buckets, each within ~3 sigma *)
  let rng = Rng.of_string_seed "uniform" in
  let counts = Array.make 6 0 in
  for _ = 1 to 6000 do
    let v = Rng.int_below rng 6 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "within 3 sigma of 1000" true (abs (c - 1000) < 100))
    counts

let test_rng_split () =
  let rng = Rng.of_string_seed "split" in
  let a = Rng.split rng in
  let b = Rng.split rng in
  let same = ref true in
  for _ = 1 to 16 do
    if Rng.byte a <> Rng.byte b then same := false
  done;
  Alcotest.(check bool) "split streams differ" false !same

let test_rng_seed_normalization () =
  (* a non-32-byte seed is hashed; equal seeds agree regardless of length *)
  let a = Rng.of_seed (Bytes.of_string "short") in
  let b = Rng.of_seed (Bytes.of_string "short") in
  Alcotest.(check bytes) "hashed seeds agree" (Rng.bytes a 8) (Rng.bytes b 8)

(* [uint32] reads a whole word while 4 bytes remain in the block and
   falls back to bytes across the boundary; after k single bytes, both
   paths must give bytes k..k+3 of the keystream, little-endian. *)
let test_rng_word_boundary () =
  let seed = Bytes.init 32 (fun i -> Char.chr (i * 7)) in
  let nonce = Bytes.make 12 '\000' in
  let stream =
    Bytes.cat (Chacha20.block ~key:seed ~counter:0 ~nonce)
      (Chacha20.block ~key:seed ~counter:1 ~nonce)
  in
  for k = 0 to 67 do
    let rng = Rng.of_seed seed in
    for _ = 1 to k do
      ignore (Rng.byte rng)
    done;
    let expect = Int32.to_int (Bytes.get_int32_le stream k) land 0xFFFFFFFF in
    Alcotest.(check int) (Printf.sprintf "uint32 after %d bytes" k) expect (Rng.uint32 rng);
    Alcotest.(check int) "next byte" (Char.code (Bytes.get stream (k + 4))) (Rng.byte rng)
  done

(* ------------------------------ Authbox ---------------------------- *)

let test_authbox_roundtrip () =
  let rng = Rng.of_string_seed "box" in
  let key = Authbox.derive_key ~client_id:7 ~server_id:2 ~master:(Bytes.of_string "master") in
  List.iter
    (fun len ->
      let msg = Rng.bytes rng len in
      let packet = Authbox.seal ~key ~rng msg in
      Alcotest.(check int) "overhead" (len + Authbox.overhead) (Bytes.length packet);
      match Authbox.open_ ~key packet with
      | Some got -> Alcotest.(check bytes) "roundtrip" msg got
      | None -> Alcotest.fail "failed to open own box")
    [ 0; 1; 63; 64; 65; 1000 ]

let test_authbox_forgery () =
  let rng = Rng.of_string_seed "forgery" in
  let key = Authbox.derive_key ~client_id:1 ~server_id:1 ~master:(Bytes.of_string "m") in
  let packet = Authbox.seal ~key ~rng (Bytes.of_string "hello") in
  (* flip each byte in turn: every modified packet must be rejected *)
  for i = 0 to Bytes.length packet - 1 do
    let bad = Bytes.copy packet in
    Bytes.set bad i (Char.chr (Char.code (Bytes.get bad i) lxor 0x80));
    Alcotest.(check bool) (Printf.sprintf "tamper byte %d" i) true
      (Authbox.open_ ~key bad = None)
  done;
  (* wrong key *)
  let key2 = Authbox.derive_key ~client_id:1 ~server_id:2 ~master:(Bytes.of_string "m") in
  Alcotest.(check bool) "wrong key" true (Authbox.open_ ~key:key2 packet = None);
  (* truncated *)
  Alcotest.(check bool) "truncated" true
    (Authbox.open_ ~key (Bytes.sub packet 0 10) = None)

let () =
  Alcotest.run "crypto"
    [
      ( "chacha20",
        [
          Alcotest.test_case "rfc8439 block" `Quick test_chacha_block;
          Alcotest.test_case "rfc8439 encrypt" `Quick test_chacha_encrypt;
          Alcotest.test_case "length sweep" `Quick test_chacha_length_sweep;
          Alcotest.test_case "argument checks" `Quick test_chacha_args;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "fips vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental;
          Alcotest.test_case "length sweep" `Quick test_sha256_length_sweep;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 vectors" `Quick test_hmac_vectors;
          Alcotest.test_case "rfc4231 long-key vectors" `Quick test_hmac_long_key_vectors;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          Alcotest.test_case "verify contract" `Quick
            test_hmac_verify_contract;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "seed normalization" `Quick test_rng_seed_normalization;
          Alcotest.test_case "word reads across blocks" `Quick test_rng_word_boundary;
        ] );
      ( "authbox",
        [
          Alcotest.test_case "roundtrip" `Quick test_authbox_roundtrip;
          Alcotest.test_case "forgery" `Quick test_authbox_forgery;
        ] );
    ]
