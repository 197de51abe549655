open Sim_mem

type kind = Raw | Vector | Mixed of Descriptor.desc | Proxy

let header (s : Store.t) addr = Memory.get s.mem addr
let set_header (s : Store.t) addr w = Memory.set s.mem addr w

let kind s addr =
  let h = header s addr in
  if Header.is_forward h then
    invalid_arg "Obj_repr.kind: forwarding word, not an object";
  let id = Header.id h in
  if id = Header.raw_id then Raw
  else if id = Header.vector_id then Vector
  else if id = Header.proxy_id then Proxy
  else Mixed (Descriptor.find s.Store.table id)

let size_words (s : Store.t) addr =
  let h = Memory.get_int s.mem addr in
  if Header.Int.is_forward h then
    invalid_arg "Obj_repr.size_words: forwarding word";
  Header.Int.length_words h

let total_bytes s addr = (size_words s addr + 1) * Addr.word_bytes
let field_addr addr i = addr + ((i + 1) * Addr.word_bytes)

let get_field (s : Store.t) addr i = Value.of_word (Memory.get s.mem (field_addr addr i))

let set_field (s : Store.t) addr i v =
  Memory.set s.mem (field_addr addr i) (Value.to_word v)

let get_raw (s : Store.t) addr i = Memory.get s.mem (field_addr addr i)
let set_raw (s : Store.t) addr i w = Memory.set s.mem (field_addr addr i) w
let get_float s addr i = Int64.float_of_bits (get_raw s addr i)
let set_float s addr i f = set_raw s addr i (Int64.bits_of_float f)

let init_raw s ~addr ~words =
  set_header s addr (Header.encode ~id:Header.raw_id ~length_words:words)

let init_vector s ~addr fields =
  set_header s addr
    (Header.encode ~id:Header.vector_id ~length_words:(Array.length fields));
  Array.iteri (fun i v -> set_field s addr i v) fields

let init_mixed s ~addr (d : Descriptor.desc) fields =
  if Array.length fields <> d.size_words then
    invalid_arg "Obj_repr.init_mixed: field count mismatch";
  set_header s addr (Header.encode ~id:d.id ~length_words:d.size_words);
  Array.iteri (fun i v -> set_field s addr i v) fields

(* [kind]'s dispatch on a header read as an int, without building the
   [kind]: this runs for every object a collector scans. *)
let iter_pointer_slots (s : Store.t) addr f =
  let h = Memory.get_int s.mem addr in
  if Header.Int.is_forward h then
    invalid_arg "Obj_repr.kind: forwarding word, not an object";
  let id = Header.Int.id h in
  if id = Header.vector_id then
    for i = 0 to Header.Int.length_words h - 1 do
      f (field_addr addr i)
    done
  else if id >= Header.first_mixed_id then
    (Descriptor.find s.Store.table id).scan_slots (fun slot ->
        f (field_addr addr slot))

let copy_object (s : Store.t) ~src ~dst =
  let bytes = total_bytes s src in
  Memory.copy s.mem ~src ~dst ~bytes;
  bytes
