(* One rule violation at one source location. *)

module Json = Lslp_util.Json

type t = {
  rule : string;
  slug : string;
  file : string;
  line : int;
  col : int;
  ident : string;
  message : string;
}

let v ~rule ~slug ~file ~loc ~ident message =
  let p = loc.Location.loc_start in
  {
    rule;
    slug;
    file;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    ident;
    message;
  }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.ident b.ident

let pp ppf f =
  Fmt.pf ppf "%s:%d:%d: error[%s:%s]: %s" f.file f.line f.col f.rule f.slug
    f.message

let json ~waived f =
  Json.Obj
    [
      ("rule", Json.Str f.rule);
      ("slug", Json.Str f.slug);
      ("file", Json.Str f.file);
      ("line", Json.Int f.line);
      ("col", Json.Int f.col);
      ("ident", Json.Str f.ident);
      ("message", Json.Str f.message);
      ("waived", Json.Bool waived);
    ]
