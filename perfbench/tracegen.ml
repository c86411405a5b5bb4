(* Seeded multi-core Lackey traces for the simtrace-replay workload.

   Record [i] belongs to core [i mod cores] and carries that core as
   its "N:" tag.  Each record is an 8-byte load or store (about one in
   four is a store) to one of three regions:
   - 60%: the core's private stream, a sequential sweep that wraps
     around a 64 KB buffer (line reuse in L1, buffer reuse in L2);
   - 20%: a random word of a 32 KB region every core shares, so stores
     invalidate the other cores' copies;
   - 20%: a random word of a 4 MB region, larger than any cache, so
     most of these go off-chip.
   The same seed gives the same text. *)

let private_bytes = 64 * 1024
let shared_bytes = 32 * 1024
let random_bytes = 4 * 1024 * 1024
let private_base core = 0x1000_0000 + (core * 0x0100_0000)
let shared_base = 0x2000_0000
let random_base = 0x4000_0000

let generate ~seed ~cores ~records =
  let st = Random.State.make [| seed; 0x7ace |] in
  let buf = Buffer.create (records * 20) in
  let cursor = Array.make cores 0 in
  for i = 0 to records - 1 do
    let core = i mod cores in
    let r = Random.State.int st 100 in
    let addr =
      if r < 60 then begin
        let off = cursor.(core) in
        cursor.(core) <- (off + 8) mod private_bytes;
        private_base core + off
      end
      else if r < 80 then shared_base + (8 * Random.State.int st (shared_bytes / 8))
      else random_base + (8 * Random.State.int st (random_bytes / 8))
    in
    let kind = if Random.State.int st 4 = 0 then 'S' else 'L' in
    Printf.bprintf buf "%d: %c %x,8\n" core kind addr
  done;
  Buffer.contents buf
