type token = {
  text : string;
  line : int;
  col : int;
}

type error = {
  e_line : int;
  e_col : int;
  expected : string;
  got : string;
}

let error_to_string e =
  Printf.sprintf "line %d, col %d: expected %s, got %s" e.e_line e.e_col
    e.expected e.got

type t = {
  src : string;
  mutable off : int;
  mutable line : int;
  mutable col : int;
  mutable peeked : token option;
  mutable last_end : int * int;  (* (line, col) just past the last token *)
}

let make src = { src; off = 0; line = 1; col = 1; peeked = None; last_end = (1, 1) }

let is_space = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false
let is_structural = function '(' | ')' | ';' -> true | _ -> false

let advance t =
  (if t.src.[t.off] = '\n' then begin
     t.line <- t.line + 1;
     t.col <- 1
   end
   else t.col <- t.col + 1);
  t.off <- t.off + 1

let rec skip_blank t =
  if t.off < String.length t.src then
    if is_space t.src.[t.off] then begin
      advance t;
      skip_blank t
    end
    else if t.src.[t.off] = '#' then begin
      while t.off < String.length t.src && t.src.[t.off] <> '\n' do
        advance t
      done;
      skip_blank t
    end

let scan t =
  skip_blank t;
  if t.off >= String.length t.src then None
  else begin
    let line = t.line and col = t.col in
    let start = t.off in
    if is_structural t.src.[t.off] then advance t
    else
      while
        t.off < String.length t.src
        && (not (is_space t.src.[t.off]))
        && not (is_structural t.src.[t.off])
      do
        advance t
      done;
    Some { text = String.sub t.src start (t.off - start); line; col }
  end

let peek t =
  match t.peeked with
  | Some _ as tok -> tok
  | None ->
    let tok = scan t in
    t.peeked <- tok;
    tok

let next t =
  match peek t with
  | None -> None
  | Some tok as r ->
    t.peeked <- None;
    t.last_end <- (tok.line, tok.col + String.length tok.text);
    r

let pos_after t = t.last_end

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
