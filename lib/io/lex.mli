(** Tokenizer shared by the DEF and LEF subset parsers, and the one
    whole-file reader every [lib/io] loader uses.

    Splits a source text into whitespace-separated words, treating the
    structural characters ['('], [')'] and [';'] as single-character
    tokens even when glued to a word, and skipping ['#'] line comments
    (the DEF/LEF comment convention). Every token carries its 1-based
    line and column, so parse failures can point at the exact source
    position.

    Parsing in this library is {e total}: the parsers never raise on
    malformed input; they return a structured {!error} — the same
    design as the [vm1dp-jobs/1] codec in [lib/serve/protocol.ml]. *)

type token = {
  text : string;
  line : int;  (** 1-based *)
  col : int;   (** 1-based column of the token's first character *)
}

(** A structured parse error: what the parser was looking for
    ([expected], e.g. [";"] or ["an integer"]) and what it found
    ([got] — a token's text, or ["end of input"]). *)
type error = {
  e_line : int;
  e_col : int;
  expected : string;
  got : string;
}

(** ["line L, col C: expected E, got G"]. *)
val error_to_string : error -> string

type t

val make : string -> t

(** [peek t] is the next token without consuming it. *)
val peek : t -> token option

(** [next t] consumes and returns the next token. *)
val next : t -> token option

(** [pos_after t] is the (line, col) just past the last consumed
    token — the position reported when input ends prematurely. *)
val pos_after : t -> int * int

(** [read_whole_file path] is the file's bytes, read in binary mode.
    Raises [Sys_error] when [path] cannot be opened or read. *)
val read_whole_file : string -> string
