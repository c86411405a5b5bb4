(** Fixed-width bitsets: the tags of the paper (§3.3).

    A tag is a bit per data block; bit [j] is set iff the iteration
    group accesses block [j].  Dot products of tags (popcount of the
    intersection) are the affinity measure of the clustering and
    scheduling algorithms, so they are hot: the representation is a
    packed [int array]. *)

type t

(** [create n] is the empty set over [n] bits.
    @raise Invalid_argument if [n < 0]. *)
val create : int -> t

(** [singleton n j] has only bit [j] set. *)
val singleton : int -> int -> t

(** [of_list n js] sets each bit of [js]. *)
val of_list : int -> int list -> t

val width : t -> int

(** [set t j] / [clear t j] return a new set; inputs are immutable. *)
val set : t -> int -> t

val clear : t -> int -> t
val get : t -> int -> bool

(** Number of set bits. *)
val count : t -> int

(** Bitwise or: the paper's "bitwise sum" used as a cluster's tag. *)
val union : t -> t -> t

val inter : t -> t -> t
val diff : t -> t -> t

(** [dot a b] = |a ∩ b|: the paper's tag dot-product affinity. *)
val dot : t -> t -> int

(** A bitset stored as its nonzero words only: the form for a tag
    that is dotted many times against wide ones. *)
type sparse

val sparse : t -> sparse

(** Number of nonzero words: the cost of {!dot_sparse}. *)
val sparse_words : sparse -> int

(** [dot_sparse s t] = [dot a t] for [s = sparse a], at a cost linear
    in the nonzero words of [a] rather than in the width.
    @raise Invalid_argument on a width mismatch. *)
val dot_sparse : sparse -> t -> int

(** Bits set in exactly one of the two: the Hamming distance. *)
val hamming : t -> t -> int

val is_empty : t -> bool
val equal : t -> t -> bool
val subset : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** Indices of set bits, ascending. *)
val to_list : t -> int list

(** Apply [f] to every set bit, ascending. *)
val iter : (int -> unit) -> t -> unit

(** Render as a 0/1 string, bit 0 leftmost (like the paper's figures). *)
val to_string : t -> string

val pp : t Fmt.t
