(* Digits come from the non-positive form of the number, because [-min_int]
   does not exist; [mod] keeps the dividend's sign, so [m mod 10] is the
   negated last digit of [m <= 0]. *)

let rec add_nonpos buf m =
  if m <= -10 then add_nonpos buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))

let add buf n =
  if n < 0 then Buffer.add_char buf '-';
  add_nonpos buf (if n < 0 then n else -n)

let rec width m = if m > -10 then 1 else 1 + width (m / 10)

let with_prefix prefix n =
  let m = if n < 0 then n else -n and p = String.length prefix in
  let digits = width m in
  let len = p + digits + if n < 0 then 1 else 0 in
  let b = Bytes.create len in
  Bytes.blit_string prefix 0 b 0 p;
  if n < 0 then Bytes.set b p '-';
  let m = ref m in
  for k = len - 1 downto len - digits do
    Bytes.unsafe_set b k (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  Bytes.unsafe_to_string b
