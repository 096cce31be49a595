(* ChaCha20-based deterministic PRG: the keystream of ChaCha20 under a
   32-byte key (the seed) with an incrementing block counter. *)

type t = {
  key : Bytes.t;
  mutable counter : int;
  mutable block : Bytes.t;
  mutable pos : int; (* next unread byte in [block] *)
}

let seed_bytes = 32

let zero_nonce = Bytes.make 12 '\000'

let of_seed seed =
  let key = if Bytes.length seed = 32 then Bytes.copy seed else Sha256.digest seed in
  { key; counter = 0; block = Bytes.create 0; pos = 0 }

let of_string_seed s = of_seed (Bytes.of_string s)

(* OS entropy for nondeterministically seeded generators. This file is the
   one sanctioned entropy seam (docs/ANALYSIS.md, no-ambient-random): all
   ambient randomness enters the system here, gets folded into a ChaCha20
   seed, and everything downstream is a pure function of that seed. *)
let os_entropy n =
  match open_in_bin "/dev/urandom" with
  | ic ->
    let b = Bytes.create n in
    let r =
      match really_input ic b 0 n with
      | () -> Some b
      | exception End_of_file -> None
    in
    close_in ic;
    r
  | exception Sys_error _ -> None

(* Last-resort seed material for platforms without /dev/urandom: a digest
   of volatile process state. Not cryptographically strong — but strictly
   better than the PID-free time-only seeding it replaces, and unreachable
   on the Unix systems this repo targets. *)
let fallback_entropy () =
  let parts =
    [
      string_of_float (Unix.gettimeofday ());
      string_of_int (Unix.getpid ());
      string_of_float (Sys.time ());
    ]
  in
  Sha256.digest (Bytes.of_string (String.concat "\x00" parts))

let create () =
  match os_entropy 32 with
  | Some b -> of_seed b
  | None -> of_seed (fallback_entropy ())

let refill t =
  (* zero_nonce is written by no one — it is a constant that happens to
     live in a Bytes because Chacha20.block wants one; sharing the
     allocation across domains read-only is safe. *)
  (* prio-lint: allow domain-unsafe-state *)
  t.block <- Chacha20.block ~key:t.key ~counter:t.counter ~nonce:zero_nonce;
  t.counter <- t.counter + 1;
  t.pos <- 0

let byte t =
  if t.pos >= Bytes.length t.block then refill t;
  let b = Char.code (Bytes.get t.block t.pos) in
  t.pos <- t.pos + 1;
  b

let bytes t n =
  let out = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set out i (Char.chr (byte t))
  done;
  out

(* One word read when 4 bytes remain in the block; across a block
   boundary, four [byte]s. Either way the same little-endian value. *)
let uint32 t =
  let pos = t.pos in
  if pos + 4 <= Bytes.length t.block then begin
    t.pos <- pos + 4;
    Int32.to_int (Bytes.get_int32_le t.block pos) land 0xFFFFFFFF
  end
  else begin
    let a = byte t in
    let b = byte t in
    let c = byte t in
    let d = byte t in
    a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)
  end

let limb31 t = uint32 t land 0x7FFFFFFF

let int_below t n =
  if n <= 0 then invalid_arg "Rng.int_below: n <= 0";
  if n = 1 then 0
  else begin
    (* rejection sampling over the smallest covering power of two *)
    let rec bits_needed k acc = if acc >= n then k else bits_needed (k + 1) (acc * 2) in
    let nbits = bits_needed 0 1 in
    let bound = 1 lsl nbits in
    let rec draw () =
      let nbytes = (nbits + 7) / 8 in
      let v = ref 0 in
      for _ = 1 to nbytes do
        v := (!v lsl 8) lor byte t
      done;
      let v = !v land (bound - 1) in
      if v < n then v else draw ()
    in
    draw ()
  end

let int_range t lo hi =
  if hi < lo then invalid_arg "Rng.int_range: hi < lo";
  lo + int_below t (hi - lo + 1)

let bool t = byte t land 1 = 1

let float01 t =
  let hi = uint32 t and lo = uint32 t in
  let v = ((hi land 0x1FFFFF) * 0x100000000) + lo in
  (* 53 random bits *)
  float_of_int v /. 9007199254740992.0

let fresh_seed t = bytes t seed_bytes
let split t = of_seed (fresh_seed t)
