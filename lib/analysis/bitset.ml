(* Mutable bitsets backed by an int array, 62 usable bits per word (the
   top bit of a 63-bit OCaml int is left unused so [count] can rely on a
   clean mask of the final word). *)

let bits_per_word = 62

type t = { n : int; words : int array }

let nwords n = (n + bits_per_word - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative universe";
  { n; words = Array.make (max 1 (nwords n)) 0 }

let universe t = t.n

let check t i =
  if i < 0 || i >= t.n then
    invalid_arg
      (Printf.sprintf "Bitset: element %d outside universe [0,%d)" i t.n)

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  t.words.(i / bits_per_word) <-
    t.words.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  t.words.(i / bits_per_word) <-
    t.words.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word))

let copy t = { t with words = Array.copy t.words }

let same_universe a b op =
  if a.n <> b.n then
    invalid_arg
      (Printf.sprintf "Bitset.%s: universes %d and %d differ" op a.n b.n)

let assign ~dst src =
  same_universe dst src "assign";
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let equal a b =
  same_universe a b "equal";
  a.words = b.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let popcount w =
  let rec go acc w = if w = 0 then acc else go (acc + (w land 1)) (w lsr 1) in
  go 0 w

let count t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let union_into ~dst src =
  same_universe dst src "union_into";
  let changed = ref false in
  for k = 0 to Array.length dst.words - 1 do
    let w = dst.words.(k) lor src.words.(k) in
    if w <> dst.words.(k) then begin
      dst.words.(k) <- w;
      changed := true
    end
  done;
  !changed

let transfer ~gen ~kill ~src ~dst =
  same_universe dst src "transfer";
  same_universe dst gen "transfer";
  same_universe dst kill "transfer";
  let changed = ref false in
  for k = 0 to Array.length dst.words - 1 do
    let w = gen.words.(k) lor (src.words.(k) land lnot kill.words.(k)) in
    if w <> dst.words.(k) then begin
      dst.words.(k) <- w;
      changed := true
    end
  done;
  !changed

let iter f t =
  for i = 0 to t.n - 1 do
    if t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0
    then f i
  done

let elements t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc
