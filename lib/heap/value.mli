(** Tagged ML values as stored in heap words.

    An immediate integer [n] is represented as [(n lsl 1) lor 1] (odd);
    a pointer is the even, 8-aligned byte address of the object's header
    word.  [unit], [false]/[true] and other nullary constructors are
    immediates.  The encoding matches the header/forwarding discrimination
    rule: anything with a low bit of 1 in a header position is a header,
    anything even is an address. *)

type t = private int

val of_int : int -> t
(** Raises [Invalid_argument] if [n] does not fit in 62 bits. *)

val to_int : t -> int
(** Raises [Invalid_argument] on a pointer. *)

val is_int : t -> bool

val of_ptr : int -> t
(** Raises [Invalid_argument] if the address is zero or unaligned. *)

val to_ptr : t -> int
(** Raises [Invalid_argument] on an immediate. *)

val is_ptr : t -> bool

val unit : t
(** The immediate [0]. *)

val of_bool : bool -> t
val to_bool : t -> bool

val to_word : t -> int64
(** The representation stored in heap memory. *)

val of_word : int64 -> t
(** Raises [Invalid_argument] if the word is not a valid value (e.g. it
    is a header that escaped into a field). *)

val of_int_word : int -> t
(** [of_word] for a word already read as an int (by
    [Sim_mem.Memory.get_int], which rejects the odd words that overflow):
    raises [Invalid_argument] on a null or unaligned pointer, as
    {!of_word} does. *)

val to_int_word : t -> int
(** {!to_word} as an int, for [Sim_mem.Memory.set_int]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
