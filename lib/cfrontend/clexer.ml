(** Hand-written lexer for the C subset. *)

type token =
  | INT_LIT of int64 * [ `I | `U | `L | `UL ]
  | FLOAT_LIT of float * [ `F | `D ]
  | IDENT of string
  | KW of string  (** keywords: int, long, char, ... *)
  | PUNCT of string  (** operators and punctuation *)
  | EOF

type t = { tokens : (token * int) array; mutable pos : int }
(** token stream with line numbers *)

exception Lex_error of string * int

let keywords =
  [ "int"; "long"; "char"; "short"; "unsigned"; "signed"; "double"; "float";
    "void"; "if"; "else"; "while"; "for"; "do"; "return"; "break"; "continue";
    "extern"; "const"; "static"; "sizeof" ]

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let three_char_ops = [ "<<="; ">>=" ]

let two_char_ops =
  [ "=="; "!="; "<="; ">="; "&&"; "||"; "<<"; ">>"; "+="; "-="; "*="; "/=";
    "%="; "&="; "|="; "^="; "++"; "--"; "->" ]

let tokenize (src : string) : t =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let emit tok = toks := (tok, !line) :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin incr line; incr i end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && peek 1 = Some '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && peek 1 = Some '*' then begin
      i := !i + 2;
      let fin = ref false in
      while not !fin do
        if !i + 1 >= n then raise (Lex_error ("unterminated comment", !line))
        else if src.[!i] = '*' && src.[!i + 1] = '/' then begin
          i := !i + 2;
          fin := true
        end
        else begin
          if src.[!i] = '\n' then incr line;
          incr i
        end
      done
    end
    else if is_digit c || (c = '.' && (match peek 1 with Some d -> is_digit d | None -> false))
    then begin
      let start = !i in
      let hex = c = '0' && (peek 1 = Some 'x' || peek 1 = Some 'X') in
      if hex then i := !i + 2;
      let isfloat = ref false in
      let valid = if hex then is_hex else is_digit in
      while !i < n && (valid src.[!i] || (not hex && (src.[!i] = '.' || src.[!i] = 'e' || src.[!i] = 'E'
                                                     || ((src.[!i] = '+' || src.[!i] = '-')
                                                        && (src.[!i-1] = 'e' || src.[!i-1] = 'E'))))) do
        if src.[!i] = '.' || src.[!i] = 'e' || src.[!i] = 'E' then isfloat := true;
        incr i
      done;
      let text = String.sub src start (!i - start) in
      if !isfloat then begin
        let suffix =
          if !i < n && (src.[!i] = 'f' || src.[!i] = 'F') then begin incr i; `F end
          else `D
        in
        emit (FLOAT_LIT (float_of_string text, suffix))
      end
      else begin
        let u = ref false and l = ref false in
        let continue_suffix = ref true in
        while !continue_suffix && !i < n do
          match src.[!i] with
          | 'u' | 'U' -> u := true; incr i
          | 'l' | 'L' -> l := true; incr i
          | _ -> continue_suffix := false
        done;
        let v =
          match Int64.of_string_opt text with
          | Some v -> v
          | None -> raise (Lex_error ("integer literal out of range", !line))
        in
        let suffix =
          match (!u, !l) with
          | false, false -> `I
          | true, false -> `U
          | false, true -> `L
          | true, true -> `UL
        in
        emit (INT_LIT (v, suffix))
      end
    end
    else if is_alpha c then begin
      let start = !i in
      while !i < n && is_alnum src.[!i] do incr i done;
      let text = String.sub src start (!i - start) in
      if List.mem text keywords then emit (KW text) else emit (IDENT text)
    end
    else if c = '\'' then begin
      (* character literal *)
      incr i;
      if !i >= n then raise (Lex_error ("unterminated char literal", !line));
      let v =
        if src.[!i] = '\\' then begin
          incr i;
          let e = src.[!i] in
          incr i;
          match e with
          | 'n' -> 10 | 't' -> 9 | 'r' -> 13 | '0' -> 0 | '\\' -> 92 | '\'' -> 39
          | c -> Char.code c
        end
        else begin
          let v = Char.code src.[!i] in
          incr i;
          v
        end
      in
      if !i >= n || src.[!i] <> '\'' then raise (Lex_error ("bad char literal", !line));
      incr i;
      emit (INT_LIT (Int64.of_int v, `I))
    end
    else begin
      let try_op len list =
        if !i + len <= n then
          let s = String.sub src !i len in
          if List.mem s list then Some s else None
        else None
      in
      match try_op 3 three_char_ops with
      | Some s -> emit (PUNCT s); i := !i + 3
      | None -> (
        match try_op 2 two_char_ops with
        | Some s -> emit (PUNCT s); i := !i + 2
        | None ->
          (match c with
          | '+' | '-' | '*' | '/' | '%' | '=' | '<' | '>' | '!' | '~' | '&'
          | '|' | '^' | '(' | ')' | '{' | '}' | '[' | ']' | ';' | ',' | '?'
          | ':' | '.' ->
            emit (PUNCT (String.make 1 c));
            incr i
          | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, !line))))
    end
  done;
  toks := (EOF, !line) :: !toks;
  { tokens = Array.of_list (List.rev !toks); pos = 0 }

let peek (lx : t) = fst lx.tokens.(lx.pos)
let peek2 (lx : t) =
  if lx.pos + 1 < Array.length lx.tokens then fst lx.tokens.(lx.pos + 1) else EOF
let line (lx : t) = snd lx.tokens.(lx.pos)
let advance (lx : t) = if lx.pos + 1 < Array.length lx.tokens then lx.pos <- lx.pos + 1

let pp_token fmt = function
  | INT_LIT (n, _) -> Format.fprintf fmt "%Ld" n
  | FLOAT_LIT (f, _) -> Format.fprintf fmt "%g" f
  | IDENT s -> Format.fprintf fmt "identifier %s" s
  | KW s -> Format.fprintf fmt "keyword %s" s
  | PUNCT s -> Format.fprintf fmt "'%s'" s
  | EOF -> Format.fprintf fmt "end of file"
