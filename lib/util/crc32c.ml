(* CRC-32C (Castagnoli), the checksum the trace pipeline stamps on
   columnar segment extents.

   Reflected polynomial 0x82F63B78, init and final xor 0xFFFFFFFF —
   the same parameterization iSCSI, ext4 and most storage formats use,
   so external tooling can re-verify segments with any stock crc32c.

   The hot loop is slice-by-8: one 8-byte fetch feeds eight table
   lookups, amortizing the per-byte dependency chain.  The same loop is
   duplicated for [string] and for [int8_unsigned] Bigarrays (mmap'd
   segment windows) — a shared [get] closure would put an indirect call
   in the innermost loop. *)

module A1 = Bigarray.Array1

type bigstring =
  (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t

let mask32 = 0xFFFFFFFF

let poly = 0x82F63B78

(* tables.(k).(b): the CRC contribution of byte [b] seen [k] positions
   before the end of an 8-byte group. *)
let tables =
  let t = Array.make_matrix 8 256 0 in
  for b = 0 to 255 do
    let c = ref b in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor poly else !c lsr 1
    done;
    t.(0).(b) <- !c
  done;
  for k = 1 to 7 do
    for b = 0 to 255 do
      let prev = t.(k - 1).(b) in
      t.(k).(b) <- (prev lsr 8) lxor t.(0).(prev land 0xFF)
    done
  done;
  t

let t0 = tables.(0)

let t1 = tables.(1)

let t2 = tables.(2)

let t3 = tables.(3)

let t4 = tables.(4)

let t5 = tables.(5)

let t6 = tables.(6)

let t7 = tables.(7)

let[@inline] step_byte crc byte =
  (crc lsr 8) lxor Array.unsafe_get t0 ((crc lxor byte) land 0xFF)

(* One slice-by-8 step over the next eight bytes [b0] .. [b7].  The
   loops below read their bytes through top-level inlined functions: a
   local [let b k = ...] would be a closure over the loop's index,
   allocated on every step. *)
let[@inline] step8 crc b0 b1 b2 b3 b4 b5 b6 b7 =
  let lo = crc lxor (b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)) in
  Array.unsafe_get t7 (lo land 0xFF)
  lxor Array.unsafe_get t6 ((lo lsr 8) land 0xFF)
  lxor Array.unsafe_get t5 ((lo lsr 16) land 0xFF)
  lxor Array.unsafe_get t4 ((lo lsr 24) land 0xFF)
  lxor Array.unsafe_get t3 b4
  lxor Array.unsafe_get t2 b5
  lxor Array.unsafe_get t1 b6
  lxor Array.unsafe_get t0 b7

let[@inline] string_byte s i = Char.code (String.unsafe_get s i)

let update_string crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32c.update_string";
  let crc = ref (crc land mask32) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let j = !i in
    crc :=
      step8 !crc (string_byte s j)
        (string_byte s (j + 1))
        (string_byte s (j + 2))
        (string_byte s (j + 3))
        (string_byte s (j + 4))
        (string_byte s (j + 5))
        (string_byte s (j + 6))
        (string_byte s (j + 7));
    i := j + 8
  done;
  while !i < pos + len do
    crc := step_byte !crc (string_byte s !i);
    incr i
  done;
  !crc

let[@inline] bigstring_byte (s : bigstring) i = A1.unsafe_get s i

let update_bigstring crc (s : bigstring) ~pos ~len =
  if pos < 0 || len < 0 || pos + len > A1.dim s then
    invalid_arg "Crc32c.update_bigstring";
  let crc = ref (crc land mask32) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let j = !i in
    crc :=
      step8 !crc (bigstring_byte s j)
        (bigstring_byte s (j + 1))
        (bigstring_byte s (j + 2))
        (bigstring_byte s (j + 3))
        (bigstring_byte s (j + 4))
        (bigstring_byte s (j + 5))
        (bigstring_byte s (j + 6))
        (bigstring_byte s (j + 7));
    i := j + 8
  done;
  while !i < pos + len do
    crc := step_byte !crc (bigstring_byte s !i);
    incr i
  done;
  !crc

let init = mask32

let finalize crc = crc lxor mask32 land mask32

let string_sub s ~pos ~len = finalize (update_string init s ~pos ~len)

let string s = string_sub s ~pos:0 ~len:(String.length s)

let bigstring_sub s ~pos ~len = finalize (update_bigstring init s ~pos ~len)
