(* The register lives in a native int (63 bits wide, so the 32-bit value
   never reaches the sign bit): no boxed Int32 per byte.  Four tables
   ("slicing by 4") fold a 32-bit word per step; [k * 256 + i] holds
   the CRC of byte [i] followed by [k] zero bytes. *)
let table =
  let t = Array.make (4 * 256) 0 in
  for i = 0 to 255 do
    let c = ref i in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(i) <- !c
  done;
  for i = 256 to (4 * 256) - 1 do
    t.(i) <- (t.(i - 256) lsr 8) lxor t.(t.(i - 256) land 0xFF)
  done;
  t

let digest ?(crc = 0l) s =
  let n = String.length s in
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  let i = ref 0 in
  while !i + 4 <= n do
    let x = !c lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF) in
    c :=
      Array.unsafe_get table (768 + (x land 0xFF))
      lxor Array.unsafe_get table (512 + ((x lsr 8) land 0xFF))
      lxor Array.unsafe_get table (256 + ((x lsr 16) land 0xFF))
      lxor Array.unsafe_get table (x lsr 24);
    i := !i + 4
  done;
  for j = !i to n - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let to_hex crc = Printf.sprintf "%08lx" crc
