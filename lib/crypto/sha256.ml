(* SHA-256 per FIPS 180-4, on native ints masked to 32 bits. *)

let m32 = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

(* The message schedule lives in the context rather than in a module-level
   buffer: contexts are per call, so domains hashing at once never share
   one. *)
type ctx = {
  h : int array; (* 8 words *)
  w : int array; (* 64-word message schedule, rewritten by every block *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes processed *)
}

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    w = Array.make 64 0;
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
  }

(* A 32-bit word doubled into the high half of a native int: any 32-bit
   window of it is a rotation, so a rotate right by n (n <= 25 here) is
   one shift and a mask, and the three rotations of each Σ/σ share the
   mask. Bit 31 of the high copy falls off the 63-bit int, but no window
   reaches it. *)
let doubled x = x lor (x lsl 32)

let compress ctx block off =
  let h = ctx.h and w = ctx.w in
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land m32
  done;
  for i = 16 to 63 do
    let x = w.(i - 15) and y = w.(i - 2) in
    let xx = doubled x and yy = doubled y in
    let s0 = ((xx lsr 7) lxor (xx lsr 18)) land m32 lxor (x lsr 3) in
    let s1 = ((yy lsr 17) lxor (yy lsr 19)) land m32 lxor (y lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land m32
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let ee = doubled !e in
    let s1 = ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land m32 in
    let ch = !g lxor (!e land (!f lxor !g)) in
    (* five 32-bit terms: no overflow, masked once where it is used *)
    let t1 = !hh + s1 + ch + k.(i) + w.(i) in
    let aa = doubled !a in
    let s0 = ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land m32 in
    let maj = (!a land !b) lor (!c land (!a lor !b)) in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land m32;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + s0 + maj) land m32
  done;
  h.(0) <- (h.(0) + !a) land m32;
  h.(1) <- (h.(1) + !b) land m32;
  h.(2) <- (h.(2) + !c) land m32;
  h.(3) <- (h.(3) + !d) land m32;
  h.(4) <- (h.(4) + !e) land m32;
  h.(5) <- (h.(5) + !f) land m32;
  h.(6) <- (h.(6) + !g) land m32;
  h.(7) <- (h.(7) + !hh) land m32

let update ctx data =
  let len = Bytes.length data in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* fill partial buffer first *)
  if ctx.buf_len > 0 then begin
    let take = Stdlib.min (64 - ctx.buf_len) len in
    Bytes.blit data 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while len - !pos >= 64 do
    compress ctx data !pos;
    pos := !pos + 64
  done;
  let rest = len - !pos in
  if rest > 0 then begin
    Bytes.blit data !pos ctx.buf ctx.buf_len rest;
    ctx.buf_len <- ctx.buf_len + rest
  end

let update_string ctx s = update ctx (Bytes.of_string s)

let finalize ctx =
  let bitlen = ctx.total * 8 in
  let pad_len =
    let r = (ctx.total + 1) mod 64 in
    if r <= 56 then 56 - r + 1 else 64 - r + 56 + 1
  in
  let pad = Bytes.make (pad_len + 8) '\000' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad (pad_len + i) (Char.chr ((bitlen lsr (8 * (7 - i))) land 0xff))
  done;
  update ctx pad;
  assert (ctx.buf_len = 0);
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  out

let digest data =
  let ctx = init () in
  update ctx data;
  finalize ctx

let digest_string s = digest (Bytes.of_string s)

let hex b =
  let buf = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf
