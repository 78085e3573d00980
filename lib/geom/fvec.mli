(** Flat unboxed float64 column: a C-layout [Bigarray.Array1].

    The column type of the flat-memory kernels ({!Pstore} coordinate and
    weight columns, {!Kern} sort buffers, the sweep segment tree).
    Unlike [floatarray], the data lives outside the OCaml heap — the GC
    never scans or moves it, it is safely shared across domains, and the
    durable layer can serialize it as one contiguous byte run. Element
    access compiles to the same unboxed load/store as [floatarray].

    Allocation is a malloc, not a minor-heap bump: use it for long-lived
    solver-sized columns, not small per-cell scratch. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Contents uninitialized. *)

val make : int -> float -> t

(** Accessors are [external] compiler primitives, not functions: a
    wrapper would compile to a real call at every use site (the
    non-flambda backend does not inline it), boxing the float on the
    way out or in. Declared [external] here too so call sites in other
    modules get the intrinsic. *)

external length : t -> int = "%caml_ba_dim_1"
external get : t -> int -> float = "%caml_ba_ref_1"
external set : t -> int -> float -> unit = "%caml_ba_set_1"
external unsafe_get : t -> int -> float = "%caml_ba_unsafe_ref_1"
external unsafe_set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"
val fill : t -> float -> unit
val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
val init : int -> (int -> float) -> t
