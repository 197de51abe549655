let raw_id = 0
let vector_id = 1
let proxy_id = 2
let first_mixed_id = 3
let max_id = (1 lsl 15) - 1
let max_length_words = (1 lsl 48) - 1

let encode ~id ~length_words =
  if id < 0 || id > max_id then invalid_arg "Header.encode: id out of range";
  if length_words < 0 || length_words > max_length_words then
    invalid_arg "Header.encode: length out of range";
  Int64.logor
    (Int64.shift_left (Int64.of_int length_words) 16)
    (Int64.of_int ((id lsl 1) lor 1))

let is_header w = Int64.logand w 1L = 1L
let id w = Int64.to_int (Int64.shift_right_logical w 1) land max_id
let length_words w = Int64.to_int (Int64.shift_right_logical w 16)

let forward addr =
  if addr = 0 || addr land 7 <> 0 then invalid_arg "Header.forward: bad address";
  Int64.of_int addr

let is_forward w = Int64.logand w 1L = 0L
let forward_addr w = Int64.to_int w

module Int = struct
  let is_forward h = h land 1 = 0
  let forward_addr h = h
  let id h = (h lsr 1) land max_id
  let length_words h = (h asr 16) land max_length_words

  let forward addr =
    if addr = 0 || addr land 7 <> 0 then
      invalid_arg "Header.forward: bad address";
    addr
end

let pp ppf w =
  if is_forward w then Format.fprintf ppf "fwd->%#x" (forward_addr w)
  else Format.fprintf ppf "hdr{id=%d;len=%d}" (id w) (length_words w)
