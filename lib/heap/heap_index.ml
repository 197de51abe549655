open Sim_mem

type large = {
  l_addr : int;
  l_bytes : int; (* page-rounded region size *)
  mutable l_marked : bool;
}

type region =
  | Free
  | Local of int
  | Global_chunk of Chunk.t
  | Large of large

type t = {
  mem : Memory.t;
  tags : region array; (* one per page *)
}

let create mem = { mem; tags = Array.make (Memory.n_pages mem) Free }

let region t addr =
  let p = Memory.page_of_addr t.mem addr in
  if p < 0 || p >= Array.length t.tags then Free else t.tags.(p)

(* Region transitions happen on whole page runs: local heaps, chunks and
   large-object regions are all page-aligned allocations, so tagging every
   page overlapping [addr, addr+bytes) tags exactly the region. *)
let set_range t ~addr ~bytes tag =
  if bytes > 0 then begin
    let lo = Memory.page_of_addr t.mem addr in
    let hi = Memory.page_of_addr t.mem (addr + bytes - 1) in
    if lo < 0 || hi >= Array.length t.tags then
      invalid_arg "Heap_index.set_range: out of range";
    for p = lo to hi do
      t.tags.(p) <- tag
    done
  end

let clear_range t ~addr ~bytes = set_range t ~addr ~bytes Free
let set_local t ~vproc ~addr ~bytes = set_range t ~addr ~bytes (Local vproc)

let set_chunk t (c : Chunk.t) =
  set_range t ~addr:c.Chunk.base ~bytes:c.Chunk.bytes (Global_chunk c)

let clear_chunk t (c : Chunk.t) =
  clear_range t ~addr:c.Chunk.base ~bytes:c.Chunk.bytes

let set_large t l = set_range t ~addr:l.l_addr ~bytes:l.l_bytes (Large l)
let clear_large t l = clear_range t ~addr:l.l_addr ~bytes:l.l_bytes

let local_owner t addr =
  match region t addr with Local v -> Some v | _ -> None

let find_chunk t addr =
  match region t addr with Global_chunk c -> Some c | _ -> None

let is_global t addr =
  match region t addr with
  | Global_chunk _ | Large _ -> true
  | Free | Local _ -> false

(* Full-table enumeration for external consistency checkers (the fuzzer
   cross-validates every page's tag against the heap structures that own
   the pages).  [f] receives the page's base address and its tag. *)
let iter_pages t f =
  let pb = Memory.page_bytes t.mem in
  Array.iteri (fun p tag -> f ~page_addr:(p * pb) tag) t.tags

let n_pages t = Array.length t.tags
let page_bytes t = Memory.page_bytes t.mem
