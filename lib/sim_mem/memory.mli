(** Simulated physical memory: a flat array of 64-bit words plus a page
    table recording, for every page, which NUMA node's bank holds it.

    Storage is flat so that a logically contiguous region (a local heap, a
    global-heap chunk) can have its pages spread across nodes — which is
    exactly what page-interleaved placement does.  The page table is what
    the cost model consults to price an access. *)

type t

val create : n_nodes:int -> capacity_bytes:int -> page_bytes:int -> t
(** Raises [Invalid_argument] if [page_bytes] is not a power of two, or
    any size is non-positive, or [n_nodes] exceeds 255. *)

val n_nodes : t -> int
val page_bytes : t -> int
val capacity_bytes : t -> int

val n_pages : t -> int
(** Number of pages in the address space ([capacity_bytes / page_bytes]);
    page-indexed side tables are sized with this. *)

val get : t -> int -> int64
(** [get t addr] reads the word at byte address [addr] (must be aligned
    and mapped). *)

val get_int : t -> int -> int
(** [get_int t addr] is [Int64.to_int (get t addr)], read without boxing
    an [int64]: the read for tagged words (values, headers and
    forwarding addresses) on the simulated access path.  Checks [addr]
    as {!get} does.  An odd word is a tagged immediate or header, which
    dropping bit 63 would change, so one that does not fit in an OCaml
    int raises [Invalid_argument]. *)

val set : t -> int -> int64 -> unit

val set_int : t -> int -> int -> unit
(** [set_int t addr v] is [set t addr (Int64.of_int v)], written without
    boxing an [int64]: the store for tagged words (values and
    forwarding addresses).  Checks [addr] as {!get} does. *)

val copy : t -> src:int -> dst:int -> bytes:int -> unit
(** [copy t ~src ~dst ~bytes] copies [bytes / 8] words from [src] to
    [dst], one at a time in ascending order (so a copy to a lower,
    overlapping address is safe), without boxing them.  Checks both
    addresses as {!get} does. *)

val node_of_addr : t -> int -> int
(** NUMA node owning the page containing [addr].  Raises
    [Invalid_argument] for an unmapped address. *)

val map_pages : t -> first_page:int -> n_pages:int -> node_of_page:(int -> int) -> unit
(** Assign nodes to a run of pages (the page allocator calls this).
    Mapped pages are zero-filled. *)

val unmap_pages : t -> first_page:int -> n_pages:int -> unit
val is_mapped : t -> int -> bool
val node_bytes : t -> node:int -> int
(** Bytes currently mapped on [node]'s bank. *)

val page_of_addr : t -> int -> int
