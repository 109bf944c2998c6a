//! A DWARF-like debug-information model.
//!
//! This crate models the three pieces of DWARF that matter for the
//! paper's measurements, with the same semantics but a simpler
//! representation:
//!
//! * the **line-number table** ([`LineTable`], cf. `.debug_line`):
//!   monotone rows mapping code addresses to source lines, with an
//!   `is_stmt` flag marking recommended breakpoint locations;
//! * **location lists** ([`LocList`], cf. `.debug_loc`): per-variable
//!   address ranges stating where the variable's value lives (register,
//!   frame slot, global, or a known constant);
//! * **variable and subprogram records** ([`VarRecord`],
//!   [`SubprogramRecord`], cf. `DW_TAG_variable` / `DW_TAG_subprogram`
//!   DIEs).
//!
//! The model is structured only: the debugger and the static metrics
//! read these records directly, so there is no serialized byte form.
//! The records derive `Hash`, which is how an object's content hash
//! covers its debug sections.

pub mod info;
pub mod line;
pub mod loc;

pub use info::{DebugInfo, SubprogramRecord, VarRecord};
pub use line::{LineRow, LineTable};
pub use loc::{LocList, LocRange, Location};
