(* Alpha-renaming of printed IR.

   Printed IR embeds its function's instruction ids in every %label (see
   Lslp_ir.Printer), so two functions of the same structure whose ids were
   drawn differently print differently.  Renaming every %token by first
   appearance makes textual equality mean structural equality — the form
   the compile service publishes its results in. *)

let ids s =
  let b = Buffer.create (String.length s) in
  let tbl = Intern.create 64 in
  let n = String.length s in
  let is_tok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '.'
  in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = '%' then begin
      let j = ref (!i + 1) in
      while !j < n && is_tok s.[!j] do incr j done;
      let tok = String.sub s !i (!j - !i) in
      let k = Intern.intern tbl tok in
      Buffer.add_string b "%r";
      Decimal.add b k;
      i := !j
    end
    else begin
      Buffer.add_char b c;
      incr i
    end
  done;
  Buffer.contents b
