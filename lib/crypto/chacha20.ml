(* ChaCha20 per RFC 8439.  All 32-bit words live in native ints and are
   masked back to 32 bits after every arithmetic step; [put32] keeps the
   low 32 bits of its argument. *)

let m32 = 0xFFFFFFFF

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land m32

let get32 b off = Int32.to_int (Bytes.get_int32_le b off) land m32
let put32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

(* The 16 state words live in local refs, not a heap array, so the 20
   rounds run in registers; each quarter round is written out in place
   because a helper taking the refs would box them. *)
let block ~key ~counter ~nonce =
  if Bytes.length key <> 32 then invalid_arg "Chacha20.block: key must be 32 bytes";
  if Bytes.length nonce <> 12 then invalid_arg "Chacha20.block: nonce must be 12 bytes";
  let k0 = get32 key 0 and k1 = get32 key 4 and k2 = get32 key 8 and k3 = get32 key 12 in
  let k4 = get32 key 16 and k5 = get32 key 20 and k6 = get32 key 24 and k7 = get32 key 28 in
  let c = counter land m32 in
  let n0 = get32 nonce 0 and n1 = get32 nonce 4 and n2 = get32 nonce 8 in
  let x0 = ref 0x61707865 and x1 = ref 0x3320646e and x2 = ref 0x79622d32 in
  let x3 = ref 0x6b206574 in
  let x4 = ref k0 and x5 = ref k1 and x6 = ref k2 and x7 = ref k3 in
  let x8 = ref k4 and x9 = ref k5 and x10 = ref k6 and x11 = ref k7 in
  let x12 = ref c and x13 = ref n0 and x14 = ref n1 and x15 = ref n2 in
  for _ = 1 to 10 do
    (* column rounds *)
    x0 := (!x0 + !x4) land m32; x12 := rotl (!x12 lxor !x0) 16;
    x8 := (!x8 + !x12) land m32; x4 := rotl (!x4 lxor !x8) 12;
    x0 := (!x0 + !x4) land m32; x12 := rotl (!x12 lxor !x0) 8;
    x8 := (!x8 + !x12) land m32; x4 := rotl (!x4 lxor !x8) 7;
    x1 := (!x1 + !x5) land m32; x13 := rotl (!x13 lxor !x1) 16;
    x9 := (!x9 + !x13) land m32; x5 := rotl (!x5 lxor !x9) 12;
    x1 := (!x1 + !x5) land m32; x13 := rotl (!x13 lxor !x1) 8;
    x9 := (!x9 + !x13) land m32; x5 := rotl (!x5 lxor !x9) 7;
    x2 := (!x2 + !x6) land m32; x14 := rotl (!x14 lxor !x2) 16;
    x10 := (!x10 + !x14) land m32; x6 := rotl (!x6 lxor !x10) 12;
    x2 := (!x2 + !x6) land m32; x14 := rotl (!x14 lxor !x2) 8;
    x10 := (!x10 + !x14) land m32; x6 := rotl (!x6 lxor !x10) 7;
    x3 := (!x3 + !x7) land m32; x15 := rotl (!x15 lxor !x3) 16;
    x11 := (!x11 + !x15) land m32; x7 := rotl (!x7 lxor !x11) 12;
    x3 := (!x3 + !x7) land m32; x15 := rotl (!x15 lxor !x3) 8;
    x11 := (!x11 + !x15) land m32; x7 := rotl (!x7 lxor !x11) 7;
    (* diagonal rounds *)
    x0 := (!x0 + !x5) land m32; x15 := rotl (!x15 lxor !x0) 16;
    x10 := (!x10 + !x15) land m32; x5 := rotl (!x5 lxor !x10) 12;
    x0 := (!x0 + !x5) land m32; x15 := rotl (!x15 lxor !x0) 8;
    x10 := (!x10 + !x15) land m32; x5 := rotl (!x5 lxor !x10) 7;
    x1 := (!x1 + !x6) land m32; x12 := rotl (!x12 lxor !x1) 16;
    x11 := (!x11 + !x12) land m32; x6 := rotl (!x6 lxor !x11) 12;
    x1 := (!x1 + !x6) land m32; x12 := rotl (!x12 lxor !x1) 8;
    x11 := (!x11 + !x12) land m32; x6 := rotl (!x6 lxor !x11) 7;
    x2 := (!x2 + !x7) land m32; x13 := rotl (!x13 lxor !x2) 16;
    x8 := (!x8 + !x13) land m32; x7 := rotl (!x7 lxor !x8) 12;
    x2 := (!x2 + !x7) land m32; x13 := rotl (!x13 lxor !x2) 8;
    x8 := (!x8 + !x13) land m32; x7 := rotl (!x7 lxor !x8) 7;
    x3 := (!x3 + !x4) land m32; x14 := rotl (!x14 lxor !x3) 16;
    x9 := (!x9 + !x14) land m32; x4 := rotl (!x4 lxor !x9) 12;
    x3 := (!x3 + !x4) land m32; x14 := rotl (!x14 lxor !x3) 8;
    x9 := (!x9 + !x14) land m32; x4 := rotl (!x4 lxor !x9) 7;
  done;
  let out = Bytes.create 64 in
  put32 out 0 (!x0 + 0x61707865);
  put32 out 4 (!x1 + 0x3320646e);
  put32 out 8 (!x2 + 0x79622d32);
  put32 out 12 (!x3 + 0x6b206574);
  put32 out 16 (!x4 + k0);
  put32 out 20 (!x5 + k1);
  put32 out 24 (!x6 + k2);
  put32 out 28 (!x7 + k3);
  put32 out 32 (!x8 + k4);
  put32 out 36 (!x9 + k5);
  put32 out 40 (!x10 + k6);
  put32 out 44 (!x11 + k7);
  put32 out 48 (!x12 + c);
  put32 out 52 (!x13 + n0);
  put32 out 56 (!x14 + n1);
  put32 out 60 (!x15 + n2);
  out

let encrypt ~key ?(counter = 1) ~nonce msg =
  let len = Bytes.length msg in
  let out = Bytes.create len in
  let nblocks = (len + 63) / 64 in
  for b = 0 to nblocks - 1 do
    let ks = block ~key ~counter:(counter + b) ~nonce in
    let off = b * 64 in
    let chunk = Stdlib.min 64 (len - off) in
    if chunk = 64 then
      (* a full block: eight 64-bit words *)
      for i = 0 to 7 do
        let o = 8 * i in
        Bytes.set_int64_le out (off + o)
          (Int64.logxor (Bytes.get_int64_le msg (off + o)) (Bytes.get_int64_le ks o))
      done
    else
      for i = 0 to chunk - 1 do
        Bytes.set out (off + i)
          (Char.chr (Char.code (Bytes.get msg (off + i)) lxor Char.code (Bytes.get ks i)))
      done
  done;
  out
