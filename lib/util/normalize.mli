(** Alpha-renaming of printed IR labels.

    A label embeds its instruction's id, numbered per function, so a
    function and its clone, or two builds that draw ids in a different
    order, print different labels for the same structure; after {!ids},
    textual equality means structural equality.  Used for the compile
    service's published payload (its output format), by the benchmark's
    correctness gate and by tests. *)

val ids : string -> string
(** Rename every [%label] by first appearance ([%r0], [%r1], ...). *)
