//! Library surface of the `graphmine` CLI — exposed so the command
//! implementations can be integration-tested directly.

#![warn(rust_2018_idioms)]

pub mod commands;
