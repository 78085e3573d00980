(** CSV point-file parsing and formatting shared by the CLI, examples and
    tests.

    Formats (one record per line, [#]-comments and blank lines ignored):
    - weighted d-dimensional points: [x1,...,xd,weight]
    - colored planar points: [x,y,color] (color a non-negative int)
    - 1-D weighted points: [x,weight] (or bare [x], weight 1)

    CRLF line endings and trailing whitespace are tolerated. Non-finite
    fields ([nan]/[inf]) are rejected: they would otherwise silently
    poison downstream float comparisons. *)

exception Parse_error of string
(** Raised with a message naming the offending line. The [load_*]
    functions prefix it with the 1-based physical line number
    (["line 7: ..."]); the bare [parse_*_line] functions do not. *)

val max_line_bytes : int
(** Maximum accepted record length (65536 bytes). Input is streamed
    line-by-line through a bounded reader: a longer (or newline-free)
    record raises {!Maxrs_resilience.Guard.Error} carrying the 1-based
    line number instead of buffering the whole line — an adversarial
    file cannot exhaust memory with a single record. *)

val input_line_bounded : in_channel -> lineno:int -> string option
(** The bounded reader behind the [load_*] functions (shared with
    {!Trace}): next line without its ['\n'], [None] at end of input.
    Raises {!Maxrs_resilience.Guard.Error} (field ["input line"], index
    [lineno]) once a line exceeds {!max_line_bytes}. *)

val parse_weighted_line : ?unweighted:bool -> string -> Maxrs_geom.Point.t * float
val parse_colored_line : string -> (float * float) * int
val parse_1d_line : string -> float * float

val load_weighted :
  ?unweighted:bool -> string -> (Maxrs_geom.Point.t * float) array
(** [load_weighted path]: with [~unweighted:true] every field is a
    coordinate and the weight is 1. *)

val load_colored : string -> (float * float) array * int array
val load_1d : string -> (float * float) array

val save_weighted : string -> (Maxrs_geom.Point.t * float) array -> unit
val save_colored : string -> (float * float) array -> int array -> unit

val format_weighted : Buffer.t -> (Maxrs_geom.Point.t * float) array -> unit
val format_colored : Buffer.t -> (float * float) array -> int array -> unit
