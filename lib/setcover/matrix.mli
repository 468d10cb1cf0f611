(** The Detection Matrix (Section 3 of the paper).

    A boolean matrix with one row per triplet and one column per fault:
    [d(i,j) = 1] iff some pattern of the test set generated by triplet [i]
    detects fault [j].

    Rows are the only authoritative storage, each a plain in-heap
    {!Bitvec.t} over the columns.  Detection matrices are dense (measured
    densities run 0.87–0.94), so packed bits are also the compact form.
    The column view still exists, but as a one-shot transposed shard
    materialised on the first {!col} and cached; the reduction and the
    solvers' hot paths never call it.  The union of all rows (the
    coverable universe) and the total ones count are maintained
    incrementally instead of being recomputed per query.

    Ownership: a matrix owns its row vectors.  {!of_rows} adopts the
    array and the vectors it is given without copying, so the caller must
    not mutate either afterwards; {!row}, {!col} and {!universe} return
    the backing vectors, which callers must not mutate.  Only {!set}
    changes a matrix after construction. *)

open Reseed_util

type t

val create : rows:int -> cols:int -> t

(** [of_rows ~cols rows] adopts [rows] (each of length [cols]) as the
    matrix rows, without copying; see the ownership rule above. *)
val of_rows : cols:int -> Bitvec.t array -> t

val rows : t -> int
val cols : t -> int

(** [set m ~row ~col] sets one cell in place.  Used by matrices built
    with {!create} (test rigs and the reduction residual). *)
val set : t -> row:int -> col:int -> unit

val get : t -> row:int -> col:int -> bool

(** [row m i] is row [i]'s backing vector, without a copy; callers must
    not mutate it. *)
val row : t -> int -> Bitvec.t

(** [col m j] exposes the internal column bitvector of the transposed
    shard, materialising the whole shard on first use; callers must not
    mutate it. *)
val col : t -> int -> Bitvec.t

(** [universe m] is the union of all rows — the columns at least one row
    covers.  Maintained at construction and by {!set}; callers must not
    mutate it. *)
val universe : t -> Bitvec.t

(** [ones m] is the total number of set cells — O(1), maintained
    incrementally. *)
val ones : t -> int

(** [density m] is [ones / (rows * cols)]. *)
val density : t -> float

(** [covers m ~rows_subset] — true iff the union of the given rows covers
    every column that is covered by at least one row of the full matrix. *)
val covers : t -> rows_subset:int list -> bool

(** [uncoverable m] lists columns no row covers (should be empty when the
    initial reseeding is built from a complete ATPG test set). *)
val uncoverable : t -> int list

val pp_stats : Format.formatter -> t -> unit
