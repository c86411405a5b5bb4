(* 62 payload bits per word keeps everything in OCaml's unboxed int
   range on 64-bit platforms. *)
let bits_per_word = 62

type t = { width : int; words : int array }

let words_for n = (n + bits_per_word - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { width = n; words = Array.make (words_for n) 0 }

let check t j =
  if j < 0 || j >= t.width then invalid_arg "Bitset: bit index out of range"

let set t j =
  check t j;
  let words = Array.copy t.words in
  words.(j / bits_per_word) <-
    words.(j / bits_per_word) lor (1 lsl (j mod bits_per_word));
  { t with words }

let clear t j =
  check t j;
  let words = Array.copy t.words in
  words.(j / bits_per_word) <-
    words.(j / bits_per_word) land lnot (1 lsl (j mod bits_per_word));
  { t with words }

let get t j =
  check t j;
  t.words.(j / bits_per_word) land (1 lsl (j mod bits_per_word)) <> 0

(* Builders write one freshly allocated word array in place instead of
   copying it once per element (Tags.group builds tags through these). *)
let of_list n js =
  if n < 0 then invalid_arg "Bitset.create";
  let words = Array.make (words_for n) 0 in
  List.iter
    (fun j ->
      if j < 0 || j >= n then
        invalid_arg "Bitset: bit index out of range";
      words.(j / bits_per_word) <-
        words.(j / bits_per_word) lor (1 lsl (j mod bits_per_word)))
    js;
  { width = n; words }

let singleton n j = of_list n [ j ]

let width t = t.width

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let count t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let map2 f a b =
  if a.width <> b.width then invalid_arg "Bitset: width mismatch";
  { a with words = Array.map2 f a.words b.words }

let union a b = map2 ( lor ) a b
let inter a b = map2 ( land ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

let fold2 f init a b =
  if a.width <> b.width then invalid_arg "Bitset: width mismatch";
  let acc = ref init in
  for i = 0 to Array.length a.words - 1 do
    acc := f !acc a.words.(i) b.words.(i)
  done;
  !acc

(* Agglomeration and balancing call [dot] millions of times: a direct
   loop that skips empty intersections, without [fold2]'s closure call
   per word. *)
let dot a b =
  if a.width <> b.width then invalid_arg "Bitset: width mismatch";
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    let x = a.words.(i) land b.words.(i) in
    if x <> 0 then acc := !acc + popcount x
  done;
  !acc

(* The nonzero words of a bitset, each after its index. *)
type sparse = { swidth : int; nonzero : int array }

let sparse t =
  let nz = ref [] in
  for i = Array.length t.words - 1 downto 0 do
    if t.words.(i) <> 0 then nz := i :: t.words.(i) :: !nz
  done;
  { swidth = t.width; nonzero = Array.of_list !nz }

let sparse_words s = Array.length s.nonzero / 2

let dot_sparse s t =
  if s.swidth <> t.width then invalid_arg "Bitset: width mismatch";
  let nz = s.nonzero in
  let acc = ref 0 in
  for i = 0 to (Array.length nz / 2) - 1 do
    let x = nz.((2 * i) + 1) land t.words.(nz.(2 * i)) in
    if x <> 0 then acc := !acc + popcount x
  done;
  !acc

let hamming a b = fold2 (fun acc x y -> acc + popcount (x lxor y)) 0 a b
let is_empty t = Array.for_all (fun w -> w = 0) t.words
let equal a b = a.width = b.width && a.words = b.words
let subset a b = fold2 (fun acc x y -> acc && x land lnot y = 0) true a b
let compare a b = Stdlib.compare (a.width, a.words) (b.width, b.words)
let hash t = Hashtbl.hash (t.width, t.words)

(* Number of trailing zeros of a one-bit word (x = 1 lsl k returns k). *)
let ntz x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFFFFFF = 0 then begin n := !n + 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then incr n;
  !n

let iter f t =
  (* Walk set bits word by word: [w land (-w)] isolates the lowest set
     bit, [w land (w - 1)] clears it — zero words and the zero tail of
     each word cost nothing, instead of testing all [width] positions. *)
  for i = 0 to Array.length t.words - 1 do
    let w = ref t.words.(i) in
    if !w <> 0 then begin
      let base = i * bits_per_word in
      while !w <> 0 do
        f (base + ntz (!w land - !w));
        w := !w land (!w - 1)
      done
    end
  done

let to_list t =
  let acc = ref [] in
  iter (fun j -> acc := j :: !acc) t;
  List.rev !acc

let to_string t = String.init t.width (fun j -> if get t j then '1' else '0')
let pp ppf t = Fmt.string ppf (to_string t)
